package cloverleaf

import "math"

// sign mirrors Fortran SIGN(1.0, x).
func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

const oneBySix = 1.0 / 6.0

// AdvecCellX performs the x-direction cell-centered advection
// (advec_cell_kernel, g_xdir). sweepNumber is 1 or 2.
//
// Loop labels in comments refer to the paper's Table I regions.
func (c *Chunk) AdvecCellX(sweepNumber int) {
	if sweepNumber == 1 {
		// ac00: both flux directions contribute to pre_vol.
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				pv := c.Volume.At(j, k) + (c.VolFluxX.At(j+1, k) - c.VolFluxX.At(j, k) +
					c.VolFluxY.At(j, k+1) - c.VolFluxY.At(j, k))
				c.PreVol.Set(j, k, pv)
				c.PostVol.Set(j, k, pv-(c.VolFluxX.At(j+1, k)-c.VolFluxX.At(j, k)))
			}
		}
	} else {
		// ac01: the simple copy-and-update loop the paper highlights as
		// SpecI2M-ineligible on ICX until restructured.
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				c.PreVol.Set(j, k, c.Volume.At(j, k)+c.VolFluxX.At(j+1, k)-c.VolFluxX.At(j, k))
				c.PostVol.Set(j, k, c.Volume.At(j, k))
			}
		}
	}

	// ac02: donor-cell mass and energy fluxes with van Leer limiting.
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax+2; j++ {
			var upwind, donor, downwind, dif int
			if c.VolFluxX.At(j, k) > 0 {
				upwind, donor, downwind, dif = j-2, j-1, j, j-1
			} else {
				upwind, donor, downwind, dif = min(j+1, c.XMax+2), j, j-1, j
			}

			sigmat := math.Abs(c.VolFluxX.At(j, k)) / c.PreVol.At(donor, k)
			sigma3 := (1 + sigmat) * (c.VertexDX.At(j) / c.VertexDX.At(dif))
			sigma4 := 2 - sigmat

			diffuw := c.Density1.At(donor, k) - c.Density1.At(upwind, k)
			diffdw := c.Density1.At(downwind, k) - c.Density1.At(donor, k)
			limiter := 0.0
			if diffuw*diffdw > 0 {
				limiter = (1 - sigmat) * sign(diffdw) *
					math.Min(math.Abs(diffuw), math.Min(math.Abs(diffdw),
						oneBySix*(sigma3*math.Abs(diffuw)+sigma4*math.Abs(diffdw))))
			}
			c.MassFluxX.Set(j, k, c.VolFluxX.At(j, k)*(c.Density1.At(donor, k)+limiter))

			sigmam := math.Abs(c.MassFluxX.At(j, k)) / (c.Density1.At(donor, k) * c.PreVol.At(donor, k))
			diffuw = c.Energy1.At(donor, k) - c.Energy1.At(upwind, k)
			diffdw = c.Energy1.At(downwind, k) - c.Energy1.At(donor, k)
			limiter = 0
			if diffuw*diffdw > 0 {
				limiter = (1 - sigmam) * sign(diffdw) *
					math.Min(math.Abs(diffuw), math.Min(math.Abs(diffdw),
						oneBySix*(sigma3*math.Abs(diffuw)+sigma4*math.Abs(diffdw))))
			}
			c.EnerFlux.Set(j, k, c.MassFluxX.At(j, k)*(c.Energy1.At(donor, k)+limiter))
		}
	}

	// ac03: conservative update of density and energy.
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			preMass := c.Density1.At(j, k) * c.PreVol.At(j, k)
			postMass := preMass + c.MassFluxX.At(j, k) - c.MassFluxX.At(j+1, k)
			postEner := (c.Energy1.At(j, k)*preMass + c.EnerFlux.At(j, k) - c.EnerFlux.At(j+1, k)) / postMass
			advecVol := c.PreVol.At(j, k) + c.VolFluxX.At(j, k) - c.VolFluxX.At(j+1, k)
			c.Density1.Set(j, k, postMass/advecVol)
			c.Energy1.Set(j, k, postEner)
		}
	}
}

// AdvecCellY is the y-direction counterpart (ac04-ac07).
func (c *Chunk) AdvecCellY(sweepNumber int) {
	if sweepNumber == 1 {
		// ac04
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				pv := c.Volume.At(j, k) + (c.VolFluxY.At(j, k+1) - c.VolFluxY.At(j, k) +
					c.VolFluxX.At(j+1, k) - c.VolFluxX.At(j, k))
				c.PreVol.Set(j, k, pv)
				c.PostVol.Set(j, k, pv-(c.VolFluxY.At(j, k+1)-c.VolFluxY.At(j, k)))
			}
		}
	} else {
		// ac05: the y-direction twin of ac01.
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				c.PreVol.Set(j, k, c.Volume.At(j, k)+c.VolFluxY.At(j, k+1)-c.VolFluxY.At(j, k))
				c.PostVol.Set(j, k, c.Volume.At(j, k))
			}
		}
	}

	// ac06
	for k := c.YMin; k <= c.YMax+2; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			var upwind, donor, downwind, dif int
			if c.VolFluxY.At(j, k) > 0 {
				upwind, donor, downwind, dif = k-2, k-1, k, k-1
			} else {
				upwind, donor, downwind, dif = min(k+1, c.YMax+2), k, k-1, k
			}

			sigmat := math.Abs(c.VolFluxY.At(j, k)) / c.PreVol.At(j, donor)
			sigma3 := (1 + sigmat) * (c.VertexDY.At(k) / c.VertexDY.At(dif))
			sigma4 := 2 - sigmat

			diffuw := c.Density1.At(j, donor) - c.Density1.At(j, upwind)
			diffdw := c.Density1.At(j, downwind) - c.Density1.At(j, donor)
			limiter := 0.0
			if diffuw*diffdw > 0 {
				limiter = (1 - sigmat) * sign(diffdw) *
					math.Min(math.Abs(diffuw), math.Min(math.Abs(diffdw),
						oneBySix*(sigma3*math.Abs(diffuw)+sigma4*math.Abs(diffdw))))
			}
			c.MassFluxY.Set(j, k, c.VolFluxY.At(j, k)*(c.Density1.At(j, donor)+limiter))

			sigmam := math.Abs(c.MassFluxY.At(j, k)) / (c.Density1.At(j, donor) * c.PreVol.At(j, donor))
			diffuw = c.Energy1.At(j, donor) - c.Energy1.At(j, upwind)
			diffdw = c.Energy1.At(j, downwind) - c.Energy1.At(j, donor)
			limiter = 0
			if diffuw*diffdw > 0 {
				limiter = (1 - sigmam) * sign(diffdw) *
					math.Min(math.Abs(diffuw), math.Min(math.Abs(diffdw),
						oneBySix*(sigma3*math.Abs(diffuw)+sigma4*math.Abs(diffdw))))
			}
			c.EnerFlux.Set(j, k, c.MassFluxY.At(j, k)*(c.Energy1.At(j, donor)+limiter))
		}
	}

	// ac07
	for k := c.YMin; k <= c.YMax; k++ {
		for j := c.XMin; j <= c.XMax; j++ {
			preMass := c.Density1.At(j, k) * c.PreVol.At(j, k)
			postMass := preMass + c.MassFluxY.At(j, k) - c.MassFluxY.At(j, k+1)
			postEner := (c.Energy1.At(j, k)*preMass + c.EnerFlux.At(j, k) - c.EnerFlux.At(j, k+1)) / postMass
			advecVol := c.PreVol.At(j, k) + c.VolFluxY.At(j, k) - c.VolFluxY.At(j, k+1)
			c.Density1.Set(j, k, postMass/advecVol)
			c.Energy1.Set(j, k, postEner)
		}
	}
}

// AdvecMomX advects one velocity component in the x direction
// (advec_mom_kernel). momSweep follows the Fortran convention:
// 1 = x first, 3 = x second.
func (c *Chunk) AdvecMomX(vel1 *Field, momSweep int) {
	switch momSweep {
	case 1: // am00
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				pv := c.Volume.At(j, k) + c.VolFluxY.At(j, k+1) - c.VolFluxY.At(j, k)
				c.PostVol.Set(j, k, pv)
				c.PreVol.Set(j, k, pv+c.VolFluxX.At(j+1, k)-c.VolFluxX.At(j, k))
			}
		}
	default: // momSweep == 3, am03
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				c.PostVol.Set(j, k, c.Volume.At(j, k))
				c.PreVol.Set(j, k, c.Volume.At(j, k)+c.VolFluxX.At(j+1, k)-c.VolFluxX.At(j, k))
			}
		}
	}

	// am04 (Listing 3)
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin - 2; j <= c.XMax+2; j++ {
			c.NodeFlux.Set(j, k, 0.25*(c.MassFluxX.At(j, k-1)+c.MassFluxX.At(j, k)+
				c.MassFluxX.At(j+1, k-1)+c.MassFluxX.At(j+1, k)))
		}
	}

	// am05
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin - 1; j <= c.XMax+2; j++ {
			post := 0.25 * (c.Density1.At(j, k-1)*c.PostVol.At(j, k-1) +
				c.Density1.At(j, k)*c.PostVol.At(j, k) +
				c.Density1.At(j-1, k-1)*c.PostVol.At(j-1, k-1) +
				c.Density1.At(j-1, k)*c.PostVol.At(j-1, k))
			c.NodeMassPost.Set(j, k, post)
			c.NodeMassPre.Set(j, k, post-c.NodeFlux.At(j-1, k)+c.NodeFlux.At(j, k))
		}
	}

	// am06: upwind momentum flux with limiter.
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin - 1; j <= c.XMax+1; j++ {
			var upwind, donor, downwind, dif int
			if c.NodeFlux.At(j, k) < 0 {
				upwind, donor, downwind, dif = j+2, j+1, j, j+1
			} else {
				upwind, donor, downwind, dif = j-1, j, j+1, j
			}
			sigma := math.Abs(c.NodeFlux.At(j, k)) / c.NodeMassPre.At(donor, k)
			width := c.CellDX.At(j)
			vdiffuw := vel1.At(donor, k) - vel1.At(upwind, k)
			vdiffdw := vel1.At(downwind, k) - vel1.At(donor, k)
			limiter := 0.0
			if vdiffuw*vdiffdw > 0 {
				auw := math.Abs(vdiffuw)
				adw := math.Abs(vdiffdw)
				wind := sign(vdiffdw)
				limiter = wind * math.Min(width*((2-sigma)*adw/width+(1+sigma)*auw/c.CellDX.At(dif))*oneBySix,
					math.Min(auw, adw))
			}
			advecVel := vel1.At(donor, k) + (1-sigma)*limiter
			c.MomFlux.Set(j, k, advecVel*c.NodeFlux.At(j, k))
		}
	}

	// am07: momentum-conservative velocity update.
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			vel1.Set(j, k, (vel1.At(j, k)*c.NodeMassPre.At(j, k)+
				c.MomFlux.At(j-1, k)-c.MomFlux.At(j, k))/c.NodeMassPost.At(j, k))
		}
	}
}

// AdvecMomY advects one velocity component in the y direction.
// momSweep: 2 = y first, 4 = y second.
func (c *Chunk) AdvecMomY(vel1 *Field, momSweep int) {
	switch momSweep {
	case 2: // am01
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				pv := c.Volume.At(j, k) + c.VolFluxX.At(j+1, k) - c.VolFluxX.At(j, k)
				c.PostVol.Set(j, k, pv)
				c.PreVol.Set(j, k, pv+c.VolFluxY.At(j, k+1)-c.VolFluxY.At(j, k))
			}
		}
	default: // momSweep == 4, am02
		for k := c.YMin - 2; k <= c.YMax+2; k++ {
			for j := c.XMin - 2; j <= c.XMax+2; j++ {
				c.PostVol.Set(j, k, c.Volume.At(j, k))
				c.PreVol.Set(j, k, c.Volume.At(j, k)+c.VolFluxY.At(j, k+1)-c.VolFluxY.At(j, k))
			}
		}
	}

	// am08
	for k := c.YMin - 2; k <= c.YMax+2; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			c.NodeFlux.Set(j, k, 0.25*(c.MassFluxY.At(j-1, k)+c.MassFluxY.At(j, k)+
				c.MassFluxY.At(j-1, k+1)+c.MassFluxY.At(j, k+1)))
		}
	}

	// am09
	for k := c.YMin - 1; k <= c.YMax+2; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			post := 0.25 * (c.Density1.At(j, k-1)*c.PostVol.At(j, k-1) +
				c.Density1.At(j, k)*c.PostVol.At(j, k) +
				c.Density1.At(j-1, k-1)*c.PostVol.At(j-1, k-1) +
				c.Density1.At(j-1, k)*c.PostVol.At(j-1, k))
			c.NodeMassPost.Set(j, k, post)
			c.NodeMassPre.Set(j, k, post-c.NodeFlux.At(j, k-1)+c.NodeFlux.At(j, k))
		}
	}

	// am10
	for k := c.YMin - 1; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			var upwind, donor, downwind, dif int
			if c.NodeFlux.At(j, k) < 0 {
				upwind, donor, downwind, dif = k+2, k+1, k, k+1
			} else {
				upwind, donor, downwind, dif = k-1, k, k+1, k
			}
			sigma := math.Abs(c.NodeFlux.At(j, k)) / c.NodeMassPre.At(j, donor)
			width := c.CellDY.At(k)
			vdiffuw := vel1.At(j, donor) - vel1.At(j, upwind)
			vdiffdw := vel1.At(j, downwind) - vel1.At(j, donor)
			limiter := 0.0
			if vdiffuw*vdiffdw > 0 {
				auw := math.Abs(vdiffuw)
				adw := math.Abs(vdiffdw)
				wind := sign(vdiffdw)
				limiter = wind * math.Min(width*((2-sigma)*adw/width+(1+sigma)*auw/c.CellDY.At(dif))*oneBySix,
					math.Min(auw, adw))
			}
			advecVel := vel1.At(j, donor) + (1-sigma)*limiter
			c.MomFlux.Set(j, k, advecVel*c.NodeFlux.At(j, k))
		}
	}

	// am11
	for k := c.YMin; k <= c.YMax+1; k++ {
		for j := c.XMin; j <= c.XMax+1; j++ {
			vel1.Set(j, k, (vel1.At(j, k)*c.NodeMassPre.At(j, k)+
				c.MomFlux.At(j, k-1)-c.MomFlux.At(j, k))/c.NodeMassPost.At(j, k))
		}
	}
}
