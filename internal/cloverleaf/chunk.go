package cloverleaf

// Chunk is one rank's subdomain with all field data. Index conventions
// follow the Fortran code: inner cells are [XMin..XMax] x [YMin..YMax]
// (global, 1-based); cell-centered arrays carry a halo of 2
// (x_min-2..x_max+2), node/face arrays one extra element on the high side
// (x_min-2..x_max+3).
type Chunk struct {
	XMin, XMax, YMin, YMax int // global inner cell bounds, inclusive

	// Cell-centered fields.
	Density0, Density1 *Field
	Energy0, Energy1   *Field
	Pressure           *Field
	Viscosity          *Field
	SoundSpeed         *Field
	Volume             *Field

	// Node-centered velocities.
	XVel0, XVel1 *Field
	YVel0, YVel1 *Field

	// Face-centered fluxes and areas.
	VolFluxX, MassFluxX *Field // x faces
	VolFluxY, MassFluxY *Field // y faces
	XArea, YArea        *Field

	// Work arrays (advection scratch).
	NodeFlux, NodeMassPost, NodeMassPre *Field
	MomFlux                             *Field
	PreVol, PostVol, EnerFlux           *Field

	// Grid geometry.
	CellX, CellDX, VertexX, VertexDX *Line1D
	CellY, CellDY, VertexY, VertexDY *Line1D

	cfg Config
}

// NewChunk allocates the chunk covering the given global cell range.
func NewChunk(cfg Config, xmin, xmax, ymin, ymax int) *Chunk {
	c := &Chunk{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, cfg: cfg}
	jl, jh := xmin-2, xmax+2
	kl, kh := ymin-2, ymax+2
	jhn, khn := xmax+3, ymax+3 // node/face high bounds

	cell := func() *Field { return NewField(jl, jh, kl, kh) }
	node := func() *Field { return NewField(jl, jhn, kl, khn) }

	c.Density0, c.Density1 = cell(), cell()
	c.Energy0, c.Energy1 = cell(), cell()
	c.Pressure, c.Viscosity, c.SoundSpeed = cell(), cell(), cell()
	c.Volume = cell()

	c.XVel0, c.XVel1 = node(), node()
	c.YVel0, c.YVel1 = node(), node()

	c.VolFluxX, c.MassFluxX = NewField(jl, jhn, kl, kh), NewField(jl, jhn, kl, kh)
	c.VolFluxY, c.MassFluxY = NewField(jl, jh, kl, khn), NewField(jl, jh, kl, khn)
	c.XArea = NewField(jl, jhn, kl, kh)
	c.YArea = NewField(jl, jh, kl, khn)

	c.NodeFlux, c.NodeMassPost, c.NodeMassPre = node(), node(), node()
	c.MomFlux = node()
	c.PreVol, c.PostVol, c.EnerFlux = node(), node(), node()

	c.CellX, c.CellDX = NewLine1D(jl, jh), NewLine1D(jl, jh)
	c.VertexX, c.VertexDX = NewLine1D(jl, jhn), NewLine1D(jl, jhn)
	c.CellY, c.CellDY = NewLine1D(kl, kh), NewLine1D(kl, kh)
	c.VertexY, c.VertexDY = NewLine1D(kl, khn), NewLine1D(kl, khn)

	c.initGeometry()
	c.initState()
	return c
}

// dx and dy are the uniform cell sizes.
func (c *Chunk) dx() float64 { return (c.cfg.XMax - c.cfg.XMin) / float64(c.cfg.GridX) }
func (c *Chunk) dy() float64 { return (c.cfg.YMax - c.cfg.YMin) / float64(c.cfg.GridY) }

// initGeometry fills coordinates, cell widths, areas and volumes
// (initialise_chunk_kernel).
func (c *Chunk) initGeometry() {
	dx, dy := c.dx(), c.dy()
	for j := c.VertexX.Lo; j <= c.VertexX.Hi; j++ {
		c.VertexX.Set(j, c.cfg.XMin+dx*float64(j-1))
		c.VertexDX.Set(j, dx)
	}
	for k := c.VertexY.Lo; k <= c.VertexY.Hi; k++ {
		c.VertexY.Set(k, c.cfg.YMin+dy*float64(k-1))
		c.VertexDY.Set(k, dy)
	}
	for j := c.CellX.Lo; j <= c.CellX.Hi; j++ {
		c.CellX.Set(j, c.cfg.XMin+dx*(float64(j-1)+0.5))
		c.CellDX.Set(j, dx)
	}
	for k := c.CellY.Lo; k <= c.CellY.Hi; k++ {
		c.CellY.Set(k, c.cfg.YMin+dy*(float64(k-1)+0.5))
		c.CellDY.Set(k, dy)
	}
	for k := c.Volume.KLo; k <= c.Volume.KHi; k++ {
		for j := c.Volume.JLo; j <= c.Volume.JHi; j++ {
			c.Volume.Set(j, k, dx*dy)
		}
	}
	for k := c.XArea.KLo; k <= c.XArea.KHi; k++ {
		for j := c.XArea.JLo; j <= c.XArea.JHi; j++ {
			c.XArea.Set(j, k, dy)
		}
	}
	for k := c.YArea.KLo; k <= c.YArea.KHi; k++ {
		for j := c.YArea.JLo; j <= c.YArea.JHi; j++ {
			c.YArea.Set(j, k, dx)
		}
	}
}

// initState applies the configured states (generate_chunk_kernel).
func (c *Chunk) initState() {
	bg := c.cfg.States[0]
	c.Density0.Fill(bg.Density)
	c.Energy0.Fill(bg.Energy)
	c.XVel0.Fill(bg.XVel)
	c.YVel0.Fill(bg.YVel)

	for _, st := range c.cfg.States[1:] {
		for k := c.Density0.KLo; k <= c.Density0.KHi; k++ {
			yc := c.CellY.At(k)
			if yc < st.YMin || yc >= st.YMax {
				continue
			}
			for j := c.Density0.JLo; j <= c.Density0.JHi; j++ {
				xc := c.CellX.At(j)
				if xc < st.XMin || xc >= st.XMax {
					continue
				}
				c.Density0.Set(j, k, st.Density)
				c.Energy0.Set(j, k, st.Energy)
			}
		}
	}
	c.Density1.CopyFrom(c.Density0)
	c.Energy1.CopyFrom(c.Energy0)
	c.XVel1.CopyFrom(c.XVel0)
	c.YVel1.CopyFrom(c.YVel0)
}

// Summary holds the field_summary_kernel reductions.
type Summary struct {
	Volume         float64
	Mass           float64
	InternalEnergy float64
	KineticEnergy  float64
	Pressure       float64
}

// FieldSummary computes the conserved quantities over the inner cells.
func (c *Chunk) FieldSummary() Summary {
	var s Summary
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			vsqrd := 0.0
			for kv := k; kv <= k+1; kv++ {
				for jv := j; jv <= j+1; jv++ {
					vsqrd += 0.25 * (c.XVel0.At(jv, kv)*c.XVel0.At(jv, kv) +
						c.YVel0.At(jv, kv)*c.YVel0.At(jv, kv))
				}
			}
			cellVol := c.Volume.At(j, k)
			cellMass := cellVol * c.Density0.At(j, k)
			s.Volume += cellVol
			s.Mass += cellMass
			s.InternalEnergy += cellMass * c.Energy0.At(j, k)
			s.KineticEnergy += cellMass * 0.5 * vsqrd
			s.Pressure += cellVol * c.Pressure.At(j, k)
		}
	}
	return s
}
