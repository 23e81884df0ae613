package cloverleaf

import "math"

// The kernels below follow the structure of the CloverLeaf reference
// implementation (ideal_gas_kernel.f90 etc.). Loop bounds use the same
// extensions as the Fortran code; all arithmetic is double precision.

// IdealGas computes pressure and sound speed from an equation of state
// p = (gamma-1) * rho * e, on (density0,energy0) if predict is false or
// (density1,energy1) if predict is true.
func (c *Chunk) IdealGas(predict bool) {
	den, en := c.Density0, c.Energy0
	if predict {
		den, en = c.Density1, c.Energy1
	}
	g1 := c.cfg.Gamma - 1
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			d := den.At(j, k)
			e := en.At(j, k)
			p := g1 * d * e
			c.Pressure.Set(j, k, p)
			v := 1.0 / d
			pe := g1 * d
			pv := -d * p * v * v // dp/dv at constant e for gamma law
			ss2 := v * v * (p*pe - pv)
			c.SoundSpeed.Set(j, k, math.Sqrt(math.Max(ss2, 1e-30)))
		}
	}
}

// CalcViscosity computes the artificial (tensor) viscous pressure
// (viscosity_kernel).
func (c *Chunk) CalcViscosity() {
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			ugrad := c.XVel0.At(j+1, k) + c.XVel0.At(j+1, k+1) - c.XVel0.At(j, k) - c.XVel0.At(j, k+1)
			vgrad := c.YVel0.At(j, k+1) + c.YVel0.At(j+1, k+1) - c.YVel0.At(j, k) - c.YVel0.At(j+1, k)

			div := c.CellDX.At(j)*0.5*ugrad + c.CellDY.At(k)*0.5*vgrad

			strain2 := 0.5*(c.XVel0.At(j, k+1)+c.XVel0.At(j+1, k+1)-c.XVel0.At(j, k)-c.XVel0.At(j+1, k))/c.CellDY.At(k) +
				0.5*(c.YVel0.At(j+1, k)+c.YVel0.At(j+1, k+1)-c.YVel0.At(j, k)-c.YVel0.At(j, k+1))/c.CellDX.At(j)

			pgradx := (c.Pressure.At(j+1, k) - c.Pressure.At(j-1, k)) / (c.CellDX.At(j) + c.CellDX.At(j+1))
			pgrady := (c.Pressure.At(j, k+1) - c.Pressure.At(j, k-1)) / (c.CellDY.At(k) + c.CellDY.At(k+1))

			pgradx2 := pgradx * pgradx
			pgrady2 := pgrady * pgrady

			limiter := (0.5*ugrad/c.CellDX.At(j)*pgradx2 +
				0.5*vgrad/c.CellDY.At(k)*pgrady2 +
				strain2*pgradx*pgrady) /
				math.Max(pgradx2+pgrady2, 1e-16)

			if limiter > 0 || div >= 0 {
				c.Viscosity.Set(j, k, 0)
				continue
			}
			pgx := math.Sqrt(pgradx2 + 1e-16)
			pgy := math.Sqrt(pgrady2 + 1e-16)
			pgrad := math.Sqrt(pgradx2 + pgrady2)
			xgrad := math.Abs(c.CellDX.At(j) * pgrad / pgx)
			ygrad := math.Abs(c.CellDY.At(k) * pgrad / pgy)
			grad := math.Min(xgrad, ygrad)
			grad2 := grad * grad

			c.Viscosity.Set(j, k, 2.0*c.Density0.At(j, k)*grad2*limiter*limiter)
		}
	}
}

// CalcDt returns the stable timestep for the chunk (calc_dt_kernel): the
// minimum over cells of sound-speed and velocity CFL limits.
func (c *Chunk) CalcDt() float64 {
	const (
		gSmall    = 1e-16
		bigNum    = 1e21
		dtCSafe   = 0.7
		dtUSafe   = 0.5
		dtVSafe   = 0.5
		dtDivSafe = 0.7
	)
	dtMin := bigNum
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			dsx := c.CellDX.At(j)
			dsy := c.CellDY.At(k)

			cc := c.SoundSpeed.At(j, k)*c.SoundSpeed.At(j, k) +
				2.0*c.Viscosity.At(j, k)/c.Density0.At(j, k)
			cc = math.Max(math.Sqrt(cc), gSmall)

			dtct := dtCSafe * math.Min(dsx, dsy) / cc

			div := 0.0
			// x velocity CFL
			du1 := math.Min(c.XVel0.At(j, k), c.XVel0.At(j, k+1))
			du2 := math.Max(c.XVel0.At(j+1, k), c.XVel0.At(j+1, k+1))
			div += du2 - du1
			dtut := dtUSafe * 2.0 * c.Volume.At(j, k) /
				math.Max(math.Max(math.Abs(du1), math.Abs(du2)), gSmall*c.Volume.At(j, k)) / dsy

			// y velocity CFL
			dv1 := math.Min(c.YVel0.At(j, k), c.YVel0.At(j+1, k))
			dv2 := math.Max(c.YVel0.At(j, k+1), c.YVel0.At(j+1, k+1))
			div += dv2 - dv1
			dtvt := dtVSafe * 2.0 * c.Volume.At(j, k) /
				math.Max(math.Max(math.Abs(dv1), math.Abs(dv2)), gSmall*c.Volume.At(j, k)) / dsx

			div /= 2.0 * math.Max(dsx, dsy)
			dtdivt := bigNum
			if div < -gSmall {
				dtdivt = dtDivSafe * (-1.0 / div)
			}

			dtMin = math.Min(dtMin, math.Min(math.Min(dtct, dtut), math.Min(dtvt, dtdivt)))
		}
	}
	return dtMin
}

// PdV advances density and energy by the volume change implied by the
// node velocities (PdV_kernel). predict uses half a timestep and the
// time-level-0 velocities only.
func (c *Chunk) PdV(predict bool, dt float64) {
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			var leftFlux, rightFlux, bottomFlux, topFlux float64
			if predict {
				h := dt * 0.5
				leftFlux = c.XArea.At(j, k) * (c.XVel0.At(j, k) + c.XVel0.At(j, k+1) +
					c.XVel0.At(j, k) + c.XVel0.At(j, k+1)) * 0.25 * h
				rightFlux = c.XArea.At(j+1, k) * (c.XVel0.At(j+1, k) + c.XVel0.At(j+1, k+1) +
					c.XVel0.At(j+1, k) + c.XVel0.At(j+1, k+1)) * 0.25 * h
				bottomFlux = c.YArea.At(j, k) * (c.YVel0.At(j, k) + c.YVel0.At(j+1, k) +
					c.YVel0.At(j, k) + c.YVel0.At(j+1, k)) * 0.25 * h
				topFlux = c.YArea.At(j, k+1) * (c.YVel0.At(j, k+1) + c.YVel0.At(j+1, k+1) +
					c.YVel0.At(j, k+1) + c.YVel0.At(j+1, k+1)) * 0.25 * h
			} else {
				leftFlux = c.XArea.At(j, k) * (c.XVel0.At(j, k) + c.XVel0.At(j, k+1) +
					c.XVel1.At(j, k) + c.XVel1.At(j, k+1)) * 0.25 * dt
				rightFlux = c.XArea.At(j+1, k) * (c.XVel0.At(j+1, k) + c.XVel0.At(j+1, k+1) +
					c.XVel1.At(j+1, k) + c.XVel1.At(j+1, k+1)) * 0.25 * dt
				bottomFlux = c.YArea.At(j, k) * (c.YVel0.At(j, k) + c.YVel0.At(j+1, k) +
					c.YVel1.At(j, k) + c.YVel1.At(j+1, k)) * 0.25 * dt
				topFlux = c.YArea.At(j, k+1) * (c.YVel0.At(j, k+1) + c.YVel0.At(j+1, k+1) +
					c.YVel1.At(j, k+1) + c.YVel1.At(j+1, k+1)) * 0.25 * dt
			}

			totalFlux := rightFlux - leftFlux + topFlux - bottomFlux
			volumeChange := c.Volume.At(j, k) / (c.Volume.At(j, k) + totalFlux)

			recipVolume := 1.0 / c.Volume.At(j, k)
			energyChange := (c.Pressure.At(j, k)/c.Density0.At(j, k) +
				c.Viscosity.At(j, k)/c.Density0.At(j, k)) * totalFlux * recipVolume

			c.Energy1.Set(j, k, c.Energy0.At(j, k)-energyChange)
			c.Density1.Set(j, k, c.Density0.At(j, k)*volumeChange)
		}
	}
}

// Accelerate updates the node velocities from pressure and viscosity
// gradients (accelerate_kernel).
func (c *Chunk) Accelerate(dt float64) {
	halfDt := 0.5 * dt
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			nodalMass := (c.Density0.At(j-1, k-1)*c.Volume.At(j-1, k-1) +
				c.Density0.At(j, k-1)*c.Volume.At(j, k-1) +
				c.Density0.At(j, k)*c.Volume.At(j, k) +
				c.Density0.At(j-1, k)*c.Volume.At(j-1, k)) * 0.25
			stepByMass := halfDt / nodalMass

			xv := c.XVel0.At(j, k) - stepByMass*(c.XArea.At(j, k)*(c.Pressure.At(j, k)-c.Pressure.At(j-1, k))+
				c.XArea.At(j, k-1)*(c.Pressure.At(j, k-1)-c.Pressure.At(j-1, k-1)))
			yv := c.YVel0.At(j, k) - stepByMass*(c.YArea.At(j, k)*(c.Pressure.At(j, k)-c.Pressure.At(j, k-1))+
				c.YArea.At(j-1, k)*(c.Pressure.At(j-1, k)-c.Pressure.At(j-1, k-1)))

			xv -= stepByMass * (c.XArea.At(j, k)*(c.Viscosity.At(j, k)-c.Viscosity.At(j-1, k)) +
				c.XArea.At(j, k-1)*(c.Viscosity.At(j, k-1)-c.Viscosity.At(j-1, k-1)))
			yv -= stepByMass * (c.YArea.At(j, k)*(c.Viscosity.At(j, k)-c.Viscosity.At(j, k-1)) +
				c.YArea.At(j-1, k)*(c.Viscosity.At(j-1, k)-c.Viscosity.At(j-1, k-1)))

			c.XVel1.Set(j, k, xv)
			c.YVel1.Set(j, k, yv)
		}
	}
}

// FluxCalc computes the volume fluxes through cell faces (flux_calc_kernel).
func (c *Chunk) FluxCalc(dt float64) {
	q := 0.25 * dt
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			c.VolFluxX.Set(j, k, q*c.XArea.At(j, k)*
				(c.XVel0.At(j, k)+c.XVel0.At(j, k+1)+c.XVel1.At(j, k)+c.XVel1.At(j, k+1)))
		}
	}
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			c.VolFluxY.Set(j, k, q*c.YArea.At(j, k)*
				(c.YVel0.At(j, k)+c.YVel0.At(j+1, k)+c.YVel1.At(j, k)+c.YVel1.At(j+1, k)))
		}
	}
}

// ResetField copies the time-level-1 fields back to level 0
// (reset_field_kernel).
func (c *Chunk) ResetField() {
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			c.Density0.Set(j, k, c.Density1.At(j, k))
			c.Energy0.Set(j, k, c.Energy1.At(j, k))
		}
	}
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			c.XVel0.Set(j, k, c.XVel1.At(j, k))
			c.YVel0.Set(j, k, c.YVel1.At(j, k))
		}
	}
}
