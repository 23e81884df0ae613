package machine

// ARM presets modeling the two alternative write-allocate-evasion
// mechanisms the paper discusses in Sec. II-D: the Neoverse N1's
// automatic write-streaming mode (store streams bypass the caches) and
// the Fujitsu A64FX's cache-line claim ("cache line zero") plus sector
// cache. These are extension machines: the paper's measurements are all
// Intel, but the mechanisms slot into the same engine and make the
// library useful for cross-architecture what-if studies.
const (
	NameNeoverseN1 = "n1"
	NameA64FX      = "a64fx"
)

// NeoverseN1 returns an Ampere-Altra-like single-socket Neoverse N1
// system (80 cores, 8ch DDR4-3200). Write-streaming mode is a static
// per-core detector: unlike SpecI2M it does not need bandwidth pressure
// and therefore works at any core count — a store ratio near 1.0 even
// serially.
func NeoverseN1() *Spec {
	s := &Spec{
		Name:           NameNeoverseN1,
		Sockets:        1,
		CoresPerSocket: 80,
		NUMAPerSocket:  1,
		FreqHz:         3.0e9,
		L1:             CacheGeom{SizeBytes: 64 * kib, Ways: 4},
		L2:             CacheGeom{SizeBytes: 1024 * kib, Ways: 8},
		L3:             CacheGeom{SizeBytes: 32 * mib, Ways: 16},
		Mem: Memory{
			DomainBandwidth: 180 * gb,
			CoreBandwidth:   9 * gb,
		},
		I2M: SpecI2M{
			Enabled: true,
			Mode:    EvasionWriteStream,
			// N1 write-streaming: a fixed miss-streak threshold opens
			// the window ("write-streaming mode", N1 TRM); no bandwidth
			// gating, no stream-count penalty.
			MinRunLines:       4,
			MinRunLinesNoPF:   4,
			BridgeLines:       0,
			PressureThreshold: 0,
			EffPureStore: []Curve{
				{{0, 0.97}, {1, 0.97}},
			},
			EffCopy:           Curve{{0, 0.97}, {1, 0.97}},
			EffStencil:        Curve{{0, 0.95}, {1, 0.95}},
			SocketPenalty:     0,
			CopySocketPenalty: 0,
			EffNoPF:           1,
		},
		NT: NTStore{
			RevertFraction: Curve{{0.02, 0.0}, {1.0, 0.02}},
		},
		FlopsPerCycle:    8,
		MPILatency:       1.6e-6,
		MPIBandwidth:     9 * gb,
		AllreduceLatency: 2.0e-6,
	}
	return s
}

// A64FX returns a Fujitsu A64FX node (48 compute cores in 4 CMGs, HBM2).
// Evasion uses cache-line claim at the private/CMG L2 ("cache line
// zero"): claimed data is immediately reusable from cache — at the cost
// of cache capacity, which the sector cache (Sec. II-C) mitigates on the
// real chip.
func A64FX() *Spec {
	s := &Spec{
		Name:           NameA64FX,
		Sockets:        1,
		CoresPerSocket: 48,
		NUMAPerSocket:  4, // CMGs
		FreqHz:         2.2e9,
		L1:             CacheGeom{SizeBytes: 64 * kib, Ways: 4},
		// 8 MiB L2 per 12-core CMG: ~680 KiB slice per core; there is no
		// L3, so the model gives the L2 share to both levels.
		L2: CacheGeom{SizeBytes: 512 * kib, Ways: 16},
		L3: CacheGeom{SizeBytes: 8 * mib * 48 / 12, Ways: 16},
		Mem: Memory{
			DomainBandwidth: 220 * gb, // HBM2 per CMG (measured ~850/node)
			CoreBandwidth:   35 * gb,
		},
		I2M: SpecI2M{
			Enabled: true,
			Mode:    EvasionClaimZero,
			// DC ZVA is compiler-issued, not speculative: the "detector"
			// is effectively always warm, independent of loop length.
			MinRunLines:       1,
			MinRunLinesNoPF:   1,
			BridgeLines:       8,
			PressureThreshold: 0,
			EffPureStore: []Curve{
				{{0, 0.98}, {1, 0.98}},
			},
			EffCopy:           Curve{{0, 0.98}, {1, 0.98}},
			EffStencil:        Curve{{0, 0.98}, {1, 0.98}},
			SocketPenalty:     0,
			CopySocketPenalty: 0,
			EffNoPF:           1,
		},
		NT: NTStore{
			RevertFraction: Curve{{0.02, 0.0}, {1.0, 0.02}},
		},
		FlopsPerCycle:    32, // 2x 512-bit SVE FMA
		MPILatency:       1.8e-6,
		MPIBandwidth:     8 * gb,
		AllreduceLatency: 2.2e-6,
	}
	return s
}
