package machine

// Preset names accepted by ByName and the CLIs.
const (
	NameICX8360Y       = "icx"       // 2x Xeon Platinum 8360Y, SNC on (paper testbed)
	NameICX8360YSNCOff = "icx-snc0"  // same chip with SNC off (for ablations)
	NameSPR8470        = "spr8470"   // 2x Xeon Platinum 8470, SNC off
	NameSPR8470SNCOn   = "spr8470+s" // 8470 with SNC on (Fig. 9)
	NameSPR8480        = "spr8480"   // 2x Xeon Platinum 8480+, SNC off
)

const (
	kib = 1024
	mib = 1024 * 1024
	gb  = 1e9 // decimal GB, matching LIKWID volume reporting
)

// ICX8360Y returns the paper's primary testbed: a two-socket Intel Xeon
// Platinum 8360Y "Ice Lake SP" node, 36 cores/socket at a fixed 2.4 GHz,
// 8 channels DDR4-3200 per socket, Sub-NUMA Clustering on (two ccNUMA
// domains per socket, four per node).
//
// Calibration targets (paper):
//   - Fig. 2: domain bandwidth saturates at ~9 cores; ~400 GB/s node.
//   - Fig. 5: store ratio 2.0 serial; ~1.06 at a full socket; 1.20-1.25
//     at the full node; mild degradation with 2-3 streams; NT ratio
//     1.0 -> 1.16-1.17.
//   - Fig. 6: copy-kernel write-allocates almost fully evaded by 17
//     threads (one SNC domain).
//   - Fig. 7: stencil loops at 72 ranks follow a phenomenological
//     SpecI2M factor of 1.2 on evadable write streams (evasion ~0.8).
//   - Fig. 8: copy read/write ratio averages ~1.35 / 1.09 / 1.04 for
//     inner dimensions 216 / 530 / 1920 on the full node.
func ICX8360Y() *Spec {
	s := &Spec{
		Name:           NameICX8360Y,
		Sockets:        2,
		CoresPerSocket: 36,
		NUMAPerSocket:  2,
		FreqHz:         2.4e9,
		L1:             CacheGeom{SizeBytes: 48 * kib, Ways: 12},
		L2:             CacheGeom{SizeBytes: 1280 * kib, Ways: 20},
		L3:             CacheGeom{SizeBytes: 54 * mib, Ways: 12},
		Mem: Memory{
			// 8ch DDR4-3200 = 204.8 GB/s/socket theoretical; ~88%
			// achievable, split across two SNC domains.
			DomainBandwidth: 90 * gb,
			CoreBandwidth:   10.5 * gb, // saturation at ~8.6 cores (Fig. 2)
		},
		I2M: SpecI2M{
			Enabled:         true,
			MinRunLines:     5,
			MinRunLinesNoPF: 24,
			BridgeLines:     2,
			// Curves are parameterized by ccNUMA-domain *occupancy*
			// (active cores / domain cores): evasion starts around 3 of
			// 18 cores and keeps improving to the full domain (Figs 5/6).
			PressureThreshold: 0.10,
			EffPureStore: []Curve{
				{{0.10, 0.00}, {0.30, 0.30}, {0.50, 0.75}, {0.75, 0.92}, {1.00, 0.955}},
				{{0.10, 0.00}, {0.30, 0.24}, {0.50, 0.66}, {0.75, 0.87}, {1.00, 0.935}},
				{{0.10, 0.00}, {0.30, 0.19}, {0.50, 0.58}, {0.75, 0.83}, {1.00, 0.915}},
			},
			EffCopy:    Curve{{0.08, 0.00}, {0.28, 0.50}, {0.50, 0.80}, {0.94, 0.985}, {1.00, 0.99}},
			EffStencil: Curve{{0.10, 0.00}, {0.30, 0.35}, {0.55, 0.75}, {0.90, 0.95}, {1.00, 0.97}},
			// Two active sockets: pure-store/stencil efficiency x0.82
			// (store ratio 1.06 -> ~1.22); copy barely affected.
			SocketPenalty:     0.18,
			CopySocketPenalty: 0.033,
			EffNoPF:           0.80,
		},
		NT: NTStore{
			RevertFraction: Curve{{0.02, 0.0}, {0.25, 0.04}, {0.5, 0.09}, {1.0, 0.165}},
		},
		FlopsPerCycle:    16,
		MPILatency:       1.4e-6,
		MPIBandwidth:     11 * gb,
		AllreduceLatency: 1.9e-6,
	}
	return s
}

// ICX8360YSNCOff is the 8360Y with Sub-NUMA Clustering disabled: one
// ccNUMA domain per socket. Used for ablation benchmarks.
func ICX8360YSNCOff() *Spec {
	s := ICX8360Y()
	s.Name = NameICX8360YSNCOff
	s.NUMAPerSocket = 1
	s.Mem.DomainBandwidth *= 2
	return s
}

// SPR8470 returns the two-socket Xeon Platinum 8470 "Sapphire Rapids"
// node (52 cores/socket, 2.0 GHz, 8ch DDR5-4800), SNC off.
//
// Fig. 9 calibration: SpecI2M kicks in only near domain saturation and
// evades less than on ICX; the 8470 evades less than the 8480+ for a
// single stream; NT behaves like ICX.
func SPR8470() *Spec {
	s := &Spec{
		Name:           NameSPR8470,
		Sockets:        2,
		CoresPerSocket: 52,
		NUMAPerSocket:  1,
		FreqHz:         2.0e9,
		L1:             CacheGeom{SizeBytes: 48 * kib, Ways: 12},
		L2:             CacheGeom{SizeBytes: 2048 * kib, Ways: 16},
		L3:             CacheGeom{SizeBytes: 105 * mib, Ways: 15},
		Mem: Memory{
			// 8ch DDR5-4800 = 307.2 GB/s/socket theoretical, ~85% achievable.
			DomainBandwidth: 260 * gb,
			CoreBandwidth:   12 * gb,
		},
		I2M: SpecI2M{
			Enabled:         true,
			MinRunLines:     3, // tolerates strip-mining gaps better (Fig. 11)
			MinRunLinesNoPF: 16,
			BridgeLines:     2,
			// Only after ~18 of 52 cores does any benefit appear
			// (Fig. 10): threshold at 0.32 domain occupancy.
			PressureThreshold: 0.32,
			// No stream-count differentiation on SPR (one curve serves
			// every stream count), and only about a third of the WAs
			// are evaded on the 8470 (Sec. V-D: 66% of WAs NOT evaded
			// for one stream -> ratio ~1.66).
			EffPureStore: []Curve{
				{{0.32, 0.00}, {0.60, 0.15}, {1.00, 0.34}},
			},
			EffCopy:           Curve{{0.32, 0.00}, {0.60, 0.60}, {1.00, 0.99}},
			EffStencil:        Curve{{0.32, 0.00}, {0.60, 0.45}, {1.00, 0.90}},
			SocketPenalty:     0.10,
			CopySocketPenalty: 0.033,
			EffNoPF:           0.80,
		},
		NT: NTStore{
			RevertFraction: Curve{{0.02, 0.0}, {0.25, 0.05}, {0.5, 0.10}, {1.0, 0.18}},
		},
		FlopsPerCycle:    16,
		MPILatency:       1.4e-6,
		MPIBandwidth:     13 * gb,
		AllreduceLatency: 1.9e-6,
	}
	return s
}

// SPR8470SNCOn is the 8470 with Sub-NUMA Clustering enabled (four ccNUMA
// domains per socket, SNC4). SpecI2M kicks in much faster (small domains
// saturate sooner) but full-socket efficiency is ~5% worse (Fig. 9).
func SPR8470SNCOn() *Spec {
	s := SPR8470()
	s.Name = NameSPR8470SNCOn
	s.NUMAPerSocket = 4 // 13 cores per domain
	s.Mem.DomainBandwidth /= 4
	for i := range s.I2M.EffPureStore {
		c := s.I2M.EffPureStore[i]
		for j := range c {
			c[j].Y *= 0.95
		}
	}
	s.I2M.SocketPenalty = 0.08
	return s
}

// SPR8480 returns the two-socket Xeon Platinum 8480+ node (56
// cores/socket, 2.0 GHz, SNC off). Fig. 10 calibration: SpecI2M only
// beneficial after ~18 cores, evades ~50% at a full socket, no stream
// count sensitivity; NT ratio rises to ~1.18. Fig. 11: copy evasion is
// insensitive to aligned strip-mining gaps (MinRunLines smaller than
// ICX), ~10% better than ICX for short aligned rows.
func SPR8480() *Spec {
	s := SPR8470()
	s.Name = NameSPR8480
	s.CoresPerSocket = 56
	s.Mem.DomainBandwidth = 270 * gb
	s.I2M.MinRunLines = 2
	s.I2M.EffPureStore = []Curve{
		{{0.32, 0.00}, {0.60, 0.22}, {1.00, 0.50}},
	}
	return s
}

// NameCLX8280 is a Cascade Lake SP preset — the generation BEFORE
// SpecI2M was introduced. It serves as the no-write-allocate-evasion
// baseline: store ratios stay at 2.0 at every core count unless NT
// stores are used.
const NameCLX8280 = "clx"

// CLX8280 returns a two-socket Xeon Platinum 8280 "Cascade Lake SP"
// node (28 cores/socket, 6ch DDR4-2933, no SNC, no SpecI2M).
func CLX8280() *Spec {
	s := &Spec{
		Name:           NameCLX8280,
		Sockets:        2,
		CoresPerSocket: 28,
		NUMAPerSocket:  1,
		FreqHz:         2.7e9,
		L1:             CacheGeom{SizeBytes: 32 * kib, Ways: 8},
		L2:             CacheGeom{SizeBytes: 1024 * kib, Ways: 16},
		L3:             CacheGeom{SizeBytes: 1408 * kib * 28, Ways: 11}, // 38.5 MiB
		Mem: Memory{
			DomainBandwidth: 115 * gb,
			CoreBandwidth:   12 * gb,
		},
		I2M: SpecI2M{
			Enabled:           false, // the whole point of this preset
			MinRunLines:       8,
			MinRunLinesNoPF:   24,
			BridgeLines:       0,
			PressureThreshold: 2, // unreachable
			EffPureStore:      []Curve{{{0, 0}, {1, 0}}},
			EffCopy:           Curve{{0, 0}, {1, 0}},
			EffStencil:        Curve{{0, 0}, {1, 0}},
			EffNoPF:           1,
		},
		NT: NTStore{
			RevertFraction: Curve{{0.02, 0.0}, {1.0, 0.05}},
		},
		FlopsPerCycle:    16,
		MPILatency:       1.4e-6,
		MPIBandwidth:     10 * gb,
		AllreduceLatency: 1.9e-6,
	}
	return s
}

// ByName returns the preset machine spec for a CLI name.
func ByName(name string) (*Spec, bool) {
	switch name {
	case NameICX8360Y:
		return ICX8360Y(), true
	case NameICX8360YSNCOff:
		return ICX8360YSNCOff(), true
	case NameSPR8470:
		return SPR8470(), true
	case NameSPR8470SNCOn:
		return SPR8470SNCOn(), true
	case NameSPR8480:
		return SPR8480(), true
	case NameCLX8280:
		return CLX8280(), true
	case NameNeoverseN1:
		return NeoverseN1(), true
	case NameA64FX:
		return A64FX(), true
	}
	return nil, false
}

// Names lists all preset names.
func Names() []string {
	return []string{NameICX8360Y, NameICX8360YSNCOff, NameSPR8470, NameSPR8470SNCOn,
		NameSPR8480, NameCLX8280, NameNeoverseN1, NameA64FX}
}

// AllPresets returns fresh specs for every preset, in Names order, so
// campaign drivers can enumerate the whole machine park instead of
// resolving presets one name at a time.
func AllPresets() []*Spec {
	names := Names()
	out := make([]*Spec, len(names))
	for i, name := range names {
		s, ok := ByName(name)
		if !ok {
			panic("machine: preset " + name + " listed in Names but not resolvable")
		}
		out[i] = s
	}
	return out
}
