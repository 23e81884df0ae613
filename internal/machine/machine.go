// Package machine defines parameterized models of the server CPUs used in
// the paper: Intel Xeon Platinum 8360Y ("Ice Lake SP"), 8470 and 8480+
// ("Sapphire Rapids"). A Spec captures everything the simulator needs:
// cache geometry, NUMA/Sub-NUMA topology, memory bandwidth saturation, and
// the calibration of the SpecI2M write-allocate-evasion feature and of
// non-temporal stores. Every modeled CPU has 64-byte lines (LineBytes)
// and the same hardware prefetcher, which memsim models as one L2
// stream prefetcher, 8 lines ahead, that Hierarchy.SetPrefetch switches
// on and off; a Spec therefore carries no prefetcher settings.
//
// The evasion-efficiency curves are phenomenological (the paper itself
// models SpecI2M with a phenomenological factor, Sec. V-B); everything
// else — layer conditions, partial-line write-allocates, prefetch traffic,
// short-loop detector resets — is mechanistic and lives in internal/core
// and internal/memsim.
package machine

import "fmt"

// LineBytes is the cache-line size of every level of every modeled CPU.
const LineBytes = 64

// CacheGeom describes one cache level.
type CacheGeom struct {
	SizeBytes int // total capacity in bytes
	Ways      int // associativity
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int { return g.SizeBytes / (g.Ways * LineBytes) }

// Validate reports an error if the geometry is not self-consistent.
func (g CacheGeom) Validate() error {
	if g.Ways <= 0 || g.SizeBytes <= 0 {
		return fmt.Errorf("machine: non-positive cache geometry %+v", g)
	}
	if g.SizeBytes%(g.Ways*LineBytes) != 0 {
		return fmt.Errorf("machine: size %d not divisible by ways*line %d", g.SizeBytes, g.Ways*LineBytes)
	}
	return nil
}

// CurvePoint is one calibration point of an efficiency curve: at bandwidth
// pressure X (0..1 within a ccNUMA domain), the efficiency is Y.
type CurvePoint struct {
	X, Y float64
}

// Curve is a piecewise-linear function over CurvePoints with constant
// extrapolation beyond the endpoints. Points must be sorted by X.
type Curve []CurvePoint

// At evaluates the curve at x.
func (c Curve) At(x float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if x <= c[0].X {
		return c[0].Y
	}
	last := c[len(c)-1]
	if x >= last.X {
		return last.Y
	}
	for i := 1; i < len(c); i++ {
		if x <= c[i].X {
			a, b := c[i-1], c[i]
			t := (x - a.X) / (b.X - a.X)
			return a.Y + t*(b.Y-a.Y)
		}
	}
	return last.Y
}

// Validate checks strictly increasing X coordinates and Y within [0,1].
func (c Curve) Validate() error {
	for i := range c {
		if i > 0 && c[i].X <= c[i-1].X {
			return fmt.Errorf("machine: curve X not strictly increasing at %d", i)
		}
		if c[i].Y < 0 || c[i].Y > 1 {
			return fmt.Errorf("machine: curve Y out of [0,1] at %d", i)
		}
	}
	return nil
}

// KernelClass distinguishes store-path behaviour classes. The paper's
// measurements show SpecI2M effectiveness depends strongly on the kernel
// shape: pure store streams (Fig. 5), a simple copy (Figs. 6/8), and
// multi-stream stencil loops (Fig. 7, phenomenological factor 1.2).
type KernelClass int

const (
	// ClassPureStore is a kernel consisting only of store streams.
	ClassPureStore KernelClass = iota
	// ClassCopy is a kernel with exactly one write stream and at most one
	// read stream (a(:) = b(:)).
	ClassCopy
	// ClassStencil is everything else: multiple read streams feeding one
	// or two write streams.
	ClassStencil
)

// EvasionMode selects the hardware mechanism used to avoid
// write-allocates once the run detector fires (Sec. II-D of the paper
// surveys all three).
type EvasionMode int

const (
	// EvasionItoM claims the line dirty at the L3 without a memory read
	// — Intel's SpecI2M (ICX, SPR).
	EvasionItoM EvasionMode = iota
	// EvasionWriteStream sends detected store streams straight to memory
	// like non-temporal stores — ARM's write-streaming mode (Neoverse
	// N1). Unlike SpecI2M it does not require bandwidth pressure: it
	// works serially too.
	EvasionWriteStream
	// EvasionClaimZero claims the line in the private L2 (cache line
	// zero, DC ZVA) — Fujitsu A64FX; claimed data is immediately
	// reusable from cache but occupies it.
	EvasionClaimZero
)

// SpecI2M holds the calibration of the dynamic write-allocate-evasion
// feature ("SpecI2M", Ice Lake SP and later) or one of its architectural
// siblings (see EvasionMode).
type SpecI2M struct {
	// Enabled mirrors the (NDA-gated) MSR bit that turns the feature off.
	Enabled bool
	// Mode selects the evasion mechanism (default ItoM).
	Mode EvasionMode
	// MinRunLines is the number of consecutive full-line stores to one
	// stream before the run detector opens the evasion window. Short inner
	// loops never warm the detector — the root of the prime-number effect.
	MinRunLines int
	// MinRunLinesNoPF is the detector warm-up when hardware prefetchers
	// are disabled (the paper's "PF off" experiments show long prefetched
	// streams help the feature).
	MinRunLinesNoPF int
	// BridgeLines is the largest hole (in untouched full lines) between
	// consecutive full-line stores that does not reset the run detector.
	// This reproduces Fig. 8: halo sizes of 8 or 16 elements (1-2 line
	// holes) keep evasion alive, arbitrary halos do not.
	BridgeLines int
	// PressureThreshold is the fraction of domain bandwidth saturation
	// below which the feature does not act at all ("requires significant
	// bandwidth draw", Sec. V-A).
	PressureThreshold float64
	// EffPureStore is the evasion efficiency vs domain pressure for
	// store-only kernels, indexed by store-stream count (index 0 -> one
	// stream). Stream counts beyond the last index reuse the last curve.
	EffPureStore []Curve
	// EffCopy is the efficiency for copy-like kernels (one write stream
	// plus one read stream); loads throttle the store rate per core,
	// which empirically improves evasion (Fig. 6 vs Fig. 5).
	EffCopy Curve
	// EffStencil is the efficiency for multi-stream stencil loops.
	EffStencil Curve
	// SocketPenalty models the efficiency loss when more than one
	// socket is active: factor = 1 - p*(sockets-1).
	// Fig. 5: store ratio 1.06 on one ICX socket but 1.20-1.25 on two.
	SocketPenalty float64
	// CopySocketPenalty is the (smaller) penalty for copy kernels
	// (Fig. 8 is measured on the full node yet reaches ratio 1.04).
	CopySocketPenalty float64
	// EffNoPF scales efficiency when hardware prefetchers are off.
	EffNoPF float64
}

// NTStore calibrates non-temporal store behaviour.
type NTStore struct {
	// RevertFraction is the fraction of NT stores that nevertheless incur
	// a write-allocate, as a function of the fraction of the node's cores
	// that are active (Fig. 5: 0 at 1 core, ~0.165 at the full node).
	RevertFraction Curve
}

// Memory describes one ccNUMA domain's memory subsystem.
type Memory struct {
	DomainBandwidth float64 // saturated bandwidth per ccNUMA domain, bytes/s
	CoreBandwidth   float64 // single-core achievable bandwidth, bytes/s
}

// Bandwidth returns the aggregate bandwidth achieved by n active cores in
// one domain (linear ramp with saturation).
func (m Memory) Bandwidth(n int) float64 {
	b := float64(n) * m.CoreBandwidth
	if b > m.DomainBandwidth {
		return m.DomainBandwidth
	}
	return b
}

// Spec is a complete machine model.
type Spec struct {
	Name             string
	Sockets          int
	CoresPerSocket   int
	NUMAPerSocket    int // ccNUMA domains per socket (2 with SNC on ICX)
	FreqHz           float64
	L1, L2           CacheGeom // private per core
	L3               CacheGeom // shared per socket; simulator uses a per-core slice
	Mem              Memory    // per ccNUMA domain
	I2M              SpecI2M
	NT               NTStore
	FlopsPerCycle    float64 // peak DP flops/cycle/core
	MPILatency       float64 // seconds per point-to-point message
	MPIBandwidth     float64 // bytes/s intra-node message payload bandwidth
	AllreduceLatency float64 // seconds per reduction stage
}

// Cores returns the total core count of the node.
func (s *Spec) Cores() int { return s.Sockets * s.CoresPerSocket }

// NUMADomains returns the total number of ccNUMA domains.
func (s *Spec) NUMADomains() int { return s.Sockets * s.NUMAPerSocket }

// CoresPerDomain returns the number of cores in one ccNUMA domain.
func (s *Spec) CoresPerDomain() int { return s.CoresPerSocket / s.NUMAPerSocket }

// DomainOf returns the ccNUMA domain index of a core under compact pinning.
func (s *Spec) DomainOf(core int) int { return core / s.CoresPerDomain() }

// ActiveInDomain returns how many of cores [0,nActive) fall into domain d
// under compact pinning (fill domains in order).
func (s *Spec) ActiveInDomain(nActive, d int) int {
	cpd := s.CoresPerDomain()
	lo := d * cpd
	if nActive <= lo {
		return 0
	}
	n := nActive - lo
	if n > cpd {
		return cpd
	}
	return n
}

// ActiveSockets returns the number of sockets touched by the first nActive
// cores under compact pinning.
func (s *Spec) ActiveSockets(nActive int) int {
	if nActive <= 0 {
		return 0
	}
	d := (nActive + s.CoresPerSocket - 1) / s.CoresPerSocket
	if d > s.Sockets {
		return s.Sockets
	}
	return d
}

// PressureAt returns the load metric that drives the SpecI2M efficiency
// curves for the given core when nActive cores run under compact
// pinning: the occupancy of the core's own ccNUMA domain. (Bandwidth
// saturates at ~half occupancy on ICX, but the paper's Fig. 6 shows
// evasion keeps improving until the domain is full — occupancy is the
// observable the calibration targets are expressed in.)
func (s *Spec) PressureAt(core, nActive int) float64 {
	return float64(s.ActiveInDomain(nActive, s.DomainOf(core))) / float64(s.CoresPerDomain())
}

// L3Slice returns the geometry of the per-core L3 share used by the
// simulator (total socket L3 divided by cores per socket, with the
// socket L3's associativity).
func (s *Spec) L3Slice() CacheGeom {
	size := s.L3.SizeBytes / s.CoresPerSocket
	size -= size % (s.L3.Ways * LineBytes)
	return CacheGeom{SizeBytes: size, Ways: s.L3.Ways}
}

// Validate checks the whole spec for consistency.
func (s *Spec) Validate() error {
	if s.Sockets <= 0 || s.CoresPerSocket <= 0 || s.NUMAPerSocket <= 0 {
		return fmt.Errorf("machine %s: non-positive topology", s.Name)
	}
	if s.CoresPerSocket%s.NUMAPerSocket != 0 {
		return fmt.Errorf("machine %s: cores per socket %d not divisible by NUMA domains %d",
			s.Name, s.CoresPerSocket, s.NUMAPerSocket)
	}
	for _, g := range []CacheGeom{s.L1, s.L2, s.L3, s.L3Slice()} {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", s.Name, err)
		}
	}
	if s.Mem.DomainBandwidth <= 0 || s.Mem.CoreBandwidth <= 0 {
		return fmt.Errorf("machine %s: non-positive bandwidth", s.Name)
	}
	if len(s.I2M.EffPureStore) == 0 {
		return fmt.Errorf("machine %s: missing pure-store efficiency curves", s.Name)
	}
	curves := append([]Curve{s.I2M.EffCopy, s.I2M.EffStencil, s.NT.RevertFraction}, s.I2M.EffPureStore...)
	for _, c := range curves {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", s.Name, err)
		}
	}
	if s.I2M.MinRunLines <= 0 || s.I2M.MinRunLinesNoPF <= 0 {
		return fmt.Errorf("machine %s: non-positive detector warm-up", s.Name)
	}
	return nil
}

// EvasionEff returns the SpecI2M evasion efficiency (probability that an
// eligible full-line store with a warm run detector is claimed as ItoM
// instead of triggering a read-for-ownership) for a core under the given
// conditions.
func (s *Spec) EvasionEff(pressure float64, class KernelClass, storeStreams, activeSockets int, pfOn bool) float64 {
	if !s.I2M.Enabled || pressure < s.I2M.PressureThreshold {
		return 0
	}
	var e float64
	penalty := s.I2M.SocketPenalty
	switch class {
	case ClassPureStore:
		idx := storeStreams - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s.I2M.EffPureStore) {
			idx = len(s.I2M.EffPureStore) - 1
		}
		e = s.I2M.EffPureStore[idx].At(pressure)
	case ClassCopy:
		e = s.I2M.EffCopy.At(pressure)
		penalty = s.I2M.CopySocketPenalty
	default:
		e = s.I2M.EffStencil.At(pressure)
	}
	if activeSockets > 1 {
		f := 1 - penalty*float64(activeSockets-1)
		if f < 0 {
			f = 0
		}
		e *= f
	}
	if !pfOn {
		e *= s.I2M.EffNoPF
	}
	if e < 0 {
		e = 0
	}
	if e > 1 {
		e = 1
	}
	return e
}

// NTRevert returns the fraction of NT stores that still incur a
// write-allocate when nodeFraction of the node's cores are active.
func (s *Spec) NTRevert(nodeFraction float64) float64 {
	return s.NT.RevertFraction.At(nodeFraction)
}

// MinRun returns the detector warm-up length given prefetcher state.
func (s *Spec) MinRun(pfOn bool) int {
	if pfOn {
		return s.I2M.MinRunLines
	}
	return s.I2M.MinRunLinesNoPF
}
