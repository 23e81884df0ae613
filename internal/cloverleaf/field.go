// Package cloverleaf implements the CloverLeaf mini-app: a 2D
// Lagrangian-Eulerian hydrodynamics code solving the compressible Euler
// equations on a staggered Cartesian grid with an explicit second-order
// method (Sec. II-B of the paper; SPEChpc 2021 benchmark 519.clvleaf).
//
// The package contains both the *physics* (all kernels execute real
// double-precision arithmetic, validated by conservation and symmetry
// tests) and the *traffic specifications* of the hotspot loops (Table I),
// which are replayed through internal/trace to reproduce the paper's
// memory-traffic measurements.
//
// The hydro is decomposed like the paper's MPI-only code: Run(cfg, n)
// steps a world of n ranks, one goroutine each, over CloverLeaf's
// chunks, and a serial run is the world of one rank. The ranks share
// memory, so a halo update copies each halo cell from the chunk that
// owns it, and every rank computes its cells bit for bit as the
// one-rank run does. The ranks model no time; the MPI time of Figs. 2
// and 4 comes from the node time model (ModelNode).
package cloverleaf

import "fmt"

// Field is a 2D array with inclusive index bounds (Fortran-style), laid
// out row-major with the j (x) index fastest.
type Field struct {
	JLo, JHi, KLo, KHi int
	row                int
	V                  []float64
}

// NewField allocates a field spanning [jlo,jhi] x [klo,khi] inclusive.
func NewField(jlo, jhi, klo, khi int) *Field {
	row := jhi - jlo + 1
	if row <= 0 || khi-klo+1 <= 0 {
		panic(fmt.Sprintf("cloverleaf: invalid field bounds [%d,%d]x[%d,%d]", jlo, jhi, klo, khi))
	}
	return &Field{
		JLo: jlo, JHi: jhi, KLo: klo, KHi: khi,
		row: row,
		V:   make([]float64, row*(khi-klo+1)),
	}
}

// At returns the value at (j,k).
func (f *Field) At(j, k int) float64 { return f.V[(k-f.KLo)*f.row+(j-f.JLo)] }

// Set assigns the value at (j,k).
func (f *Field) Set(j, k int, v float64) { f.V[(k-f.KLo)*f.row+(j-f.JLo)] = v }

// Fill sets every element to v.
func (f *Field) Fill(v float64) {
	for i := range f.V {
		f.V[i] = v
	}
}

// CopyFrom copies the full contents of src (same shape required).
func (f *Field) CopyFrom(src *Field) {
	if len(f.V) != len(src.V) {
		panic("cloverleaf: CopyFrom shape mismatch")
	}
	copy(f.V, src.V)
}

// Line1D is a 1D auxiliary array with inclusive bounds (cell widths,
// vertex coordinates).
type Line1D struct {
	Lo, Hi int
	V      []float64
}

// NewLine1D allocates a 1D line spanning [lo,hi] inclusive.
func NewLine1D(lo, hi int) *Line1D {
	return &Line1D{Lo: lo, Hi: hi, V: make([]float64, hi-lo+1)}
}

// At returns the value at i.
func (l *Line1D) At(i int) float64 { return l.V[i-l.Lo] }

// Set assigns the value at i.
func (l *Line1D) Set(i int, v float64) { l.V[i-l.Lo] = v }
