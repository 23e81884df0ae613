package cloverleaf

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

// halo updates the fields' halos to the given depth. Walls reflect, and
// every other halo cell is copied from the field of the neighbour that
// owns it, at the same global index: the x halos over the field's full
// column, then the y halos over its full row, so a corner cell reaches
// a rank through its y neighbour's x halo. A rank with no neighbours
// (a one-rank world) reflects all four edges and copies nothing.
//
// The ranks meet between the phases: no rank copies a neighbour's cells
// before the neighbour has published its fields and reflected them, no
// y halo is copied before every x halo is in place, and no rank returns
// to write its fields before its neighbours have copied from them.
func (r *Rank) halo(fields []HaloField, depth int) {
	c, w, nbr := r.Chunk, r.w, r.Nbr
	w.fields[r.id] = fields
	for _, hf := range fields {
		c.reflect(hf, depth, [4]bool{nbr[0] < 0, nbr[1] < 0, nbr[2] < 0, nbr[3] < 0})
	}
	w.meet(r.id, nil, nil)

	// Cells XMin..XMax are mine. A staggered field's face XMax+1 is also
	// the right neighbour's face XMin, which both ranks compute, so its
	// right halo starts one face further out.
	for i, hf := range fields {
		right := c.XMax + 1
		if hf.Kind.XNode {
			right++
		}
		if nbr[0] >= 0 {
			copyColumns(hf.F, w.fields[nbr[0]][i].F, c.XMin-depth, depth)
		}
		if nbr[1] >= 0 {
			copyColumns(hf.F, w.fields[nbr[1]][i].F, right, depth)
		}
	}
	w.meet(r.id, nil, nil)

	for i, hf := range fields {
		top := c.YMax + 1
		if hf.Kind.YNode {
			top++
		}
		if nbr[2] >= 0 {
			copyRows(hf.F, w.fields[nbr[2]][i].F, c.YMin-depth, depth)
		}
		if nbr[3] >= 0 {
			copyRows(hf.F, w.fields[nbr[3]][i].F, top, depth)
		}
	}
	w.meet(r.id, nil, nil)
}

// copyColumns copies the depth columns from j0 of src into f, over f's
// full k range (a neighbour in x spans the same rows).
func copyColumns(f, src *Field, j0, depth int) {
	for k := f.KLo; k <= f.KHi; k++ {
		for j := j0; j < j0+depth; j++ {
			f.Set(j, k, src.At(j, k))
		}
	}
}

// copyRows copies the depth rows from k0 of src into f, over f's full j
// range (a neighbour in y spans the same columns).
func copyRows(f, src *Field, k0, depth int) {
	for k := k0; k < k0+depth; k++ {
		for j := f.JLo; j <= f.JHi; j++ {
			f.Set(j, k, src.At(j, k))
		}
	}
}
