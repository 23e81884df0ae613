package cloverleaf

import (
	"cloversim/internal/mpi"
)

// FieldKind encodes staggering and reflection behaviour for halo updates
// (update_halo_kernel).
type FieldKind struct {
	XNode bool // staggered in x (node/x-face arrays)
	YNode bool // staggered in y (node/y-face arrays)
	XFlip bool // normal component: sign flip at x boundaries
	YFlip bool // sign flip at y boundaries
}

// Standard kinds.
var (
	KindCell  = FieldKind{}
	KindNodeX = FieldKind{XNode: true, YNode: true, XFlip: true} // xvel
	KindNodeY = FieldKind{XNode: true, YNode: true, YFlip: true} // yvel
	KindFluxX = FieldKind{XNode: true, XFlip: true}              // vol/mass_flux_x
	KindFluxY = FieldKind{YNode: true, YFlip: true}              // vol/mass_flux_y
)

// HaloField pairs a field with its kind for an exchange phase.
type HaloField struct {
	F    *Field
	Kind FieldKind
}

// reflect applies the reflective physical boundary on the chunk's outer
// edges for the sides where the chunk touches the global mesh boundary.
// edges = [left, right, bottom, top].
func (c *Chunk) reflect(hf HaloField, depth int, edges [4]bool) {
	f, kind := hf.F, hf.Kind
	kLo, kHi := c.YMin-depth, c.YMax+depth
	if kind.YNode {
		kHi++
	}
	if kLo < f.KLo {
		kLo = f.KLo
	}
	if kHi > f.KHi {
		kHi = f.KHi
	}

	if edges[0] { // left
		for k := kLo; k <= kHi; k++ {
			for d := 1; d <= depth; d++ {
				src := c.XMin + d - 1
				if kind.XNode {
					src = c.XMin + d
				}
				v := f.At(src, k)
				if kind.XFlip {
					v = -v
				}
				f.Set(c.XMin-d, k, v)
			}
		}
	}
	if edges[1] { // right
		hiFace := c.XMax + 1 // node index of the right boundary face
		for k := kLo; k <= kHi; k++ {
			for d := 1; d <= depth; d++ {
				var dst, src int
				if kind.XNode {
					dst, src = hiFace+d, hiFace-d
				} else {
					dst, src = c.XMax+d, c.XMax-d+1
				}
				if dst > f.JHi || src < f.JLo {
					continue
				}
				v := f.At(src, k)
				if kind.XFlip {
					v = -v
				}
				f.Set(dst, k, v)
			}
		}
	}

	jLo, jHi := c.XMin-depth, c.XMax+depth
	if kind.XNode {
		jHi++
	}
	if jLo < f.JLo {
		jLo = f.JLo
	}
	if jHi > f.JHi {
		jHi = f.JHi
	}

	if edges[2] { // bottom
		for d := 1; d <= depth; d++ {
			src := c.YMin + d - 1
			if kind.YNode {
				src = c.YMin + d
			}
			for j := jLo; j <= jHi; j++ {
				v := f.At(j, src)
				if kind.YFlip {
					v = -v
				}
				f.Set(j, c.YMin-d, v)
			}
		}
	}
	if edges[3] { // top
		hiFace := c.YMax + 1
		for d := 1; d <= depth; d++ {
			var dst, src int
			if kind.YNode {
				dst, src = hiFace+d, hiFace-d
			} else {
				dst, src = c.YMax+d, c.YMax-d+1
			}
			if dst > f.KHi || src < f.KLo {
				continue
			}
			for j := jLo; j <= jHi; j++ {
				v := f.At(j, src)
				if kind.YFlip {
					v = -v
				}
				f.Set(j, dst, v)
			}
		}
	}
}

// Neighbors identifies the adjacent ranks of a chunk ([left, right,
// bottom, top], -1 at physical boundaries).
type Neighbors [4]int

// packColumns serializes `depth` columns starting at j0 (inclusive,
// increasing) over the field's full k range into buf.
func packColumns(f *Field, j0, depth int) []float64 {
	rows := f.KHi - f.KLo + 1
	buf := make([]float64, depth*rows)
	i := 0
	for k := f.KLo; k <= f.KHi; k++ {
		for d := 0; d < depth; d++ {
			buf[i] = f.At(j0+d, k)
			i++
		}
	}
	return buf
}

func unpackColumns(f *Field, j0, depth int, buf []float64) {
	i := 0
	for k := f.KLo; k <= f.KHi; k++ {
		for d := 0; d < depth; d++ {
			f.Set(j0+d, k, buf[i])
			i++
		}
	}
}

func packRows(f *Field, k0, depth int) []float64 {
	cols := f.JHi - f.JLo + 1
	buf := make([]float64, depth*cols)
	i := 0
	for d := 0; d < depth; d++ {
		for j := f.JLo; j <= f.JHi; j++ {
			buf[i] = f.At(j, k0+d)
			i++
		}
	}
	return buf
}

func unpackRows(f *Field, k0, depth int, buf []float64) {
	i := 0
	for d := 0; d < depth; d++ {
		for j := f.JLo; j <= f.JHi; j++ {
			f.Set(j, k0+d, buf[i])
			i++
		}
	}
}

// UpdateHalo exchanges halos with neighbor ranks and applies reflective
// boundaries at physical edges. The x exchange completes before the y
// exchange so corner halos propagate correctly. A chunk with no
// neighbors (a one-rank world) reflects all four edges and exchanges
// nothing.
func (c *Chunk) UpdateHalo(comm *mpi.Comm, nbr Neighbors, fields []HaloField, depth int) error {
	// Physical-boundary reflection first (y reflection of x halos is
	// handled because the y pass sends full rows including x halos).
	for _, hf := range fields {
		c.reflect(hf, depth, [4]bool{nbr[0] < 0, nbr[1] < 0, nbr[2] < 0, nbr[3] < 0})
	}

	for fi, hf := range fields {
		f := hf.F
		tagBase := fi * 8

		// --- x direction ---
		// Column conventions: cells XMin..XMax are mine; for x-staggered
		// fields face XMax+1 is shared with the right neighbor (both
		// compute it identically), so staggered exchanges shift by one:
		// my right halo faces start at XMax+2 and come from the
		// neighbor's faces XMin+1.., while the neighbor's left halo
		// faces XMin-depth..XMin-1 are my faces XMax+1-depth..XMax.
		sendLeft, sendRight := c.XMin, c.XMax-depth+1
		recvLeftAt, recvRightAt := c.XMin-depth, c.XMax+1
		if hf.Kind.XNode {
			sendLeft, sendRight = c.XMin+1, c.XMax+1-depth
			recvRightAt = c.XMax + 2
		}
		var reqs []*mpi.Request
		var recvL, recvR []float64
		if nbr[0] >= 0 {
			recvL = make([]float64, depth*(f.KHi-f.KLo+1))
			reqs = append(reqs, comm.Irecv(recvL, nbr[0], tagBase+0))
			reqs = append(reqs, comm.Isend(packColumns(f, sendLeft, depth), nbr[0], tagBase+1))
		}
		if nbr[1] >= 0 {
			recvR = make([]float64, depth*(f.KHi-f.KLo+1))
			reqs = append(reqs, comm.Irecv(recvR, nbr[1], tagBase+1))
			reqs = append(reqs, comm.Isend(packColumns(f, sendRight, depth), nbr[1], tagBase+0))
		}
		if err := comm.Waitall(reqs); err != nil {
			return err
		}
		if recvL != nil {
			unpackColumns(f, recvLeftAt, depth, recvL)
		}
		if recvR != nil {
			unpackColumns(f, recvRightAt, depth, recvR)
		}

		// --- y direction ---
		sendBottom, sendTop := c.YMin, c.YMax-depth+1
		recvBottomAt, recvTopAt := c.YMin-depth, c.YMax+1
		if hf.Kind.YNode {
			sendBottom, sendTop = c.YMin+1, c.YMax+1-depth
			recvTopAt = c.YMax + 2
		}
		reqs = reqs[:0]
		var recvB, recvT []float64
		if nbr[2] >= 0 {
			recvB = make([]float64, depth*(f.JHi-f.JLo+1))
			reqs = append(reqs, comm.Irecv(recvB, nbr[2], tagBase+2))
			reqs = append(reqs, comm.Isend(packRows(f, sendBottom, depth), nbr[2], tagBase+3))
		}
		if nbr[3] >= 0 {
			recvT = make([]float64, depth*(f.JHi-f.JLo+1))
			reqs = append(reqs, comm.Irecv(recvT, nbr[3], tagBase+3))
			reqs = append(reqs, comm.Isend(packRows(f, sendTop, depth), nbr[3], tagBase+2))
		}
		if err := comm.Waitall(reqs); err != nil {
			return err
		}
		if recvB != nil {
			unpackRows(f, recvBottomAt, depth, recvB)
		}
		if recvT != nil {
			unpackRows(f, recvTopAt, depth, recvT)
		}
	}
	return nil
}
