// Package counters provides a LIKWID-like measurement layer over the
// memory-hierarchy simulator: named marker regions (the Marker API
// analogue) and derived metrics such as code balance in byte/iteration
// — the quantity all of the paper's loop-level figures report. The
// performance groups perfctr prints (MEM, MEM_DP, SPECI2M) live in
// package likwid.
package counters

import (
	"fmt"
	"sort"

	"cloversim/internal/memsim"
)

// Source exposes the live counter state of a simulated core.
type Source interface {
	Counts() memsim.Counts
}

// Region accumulates measurements of one marked code region.
type Region struct {
	Name  string
	Calls int64
	C     memsim.Counts
	Flops int64
	Iters int64 // inner loop iterations attributed to the region
}

// ReadBytes returns the region's memory read volume in bytes.
func (r *Region) ReadBytes() int64 { return r.C.ReadBytes() }

// WriteBytes returns the region's memory write volume in bytes.
func (r *Region) WriteBytes() int64 { return r.C.WriteBytes() }

// ItoMBytes returns the SpecI2M claim volume in bytes (Listing 4 metric).
func (r *Region) ItoMBytes() int64 { return r.C.ItoMLines * 64 }

// BytesPerIter returns the measured code balance in byte/it.
func (r *Region) BytesPerIter() float64 {
	if r.Iters == 0 {
		return 0
	}
	return float64(r.C.TotalBytes()) / float64(r.Iters)
}

// ReadPerIter returns the read volume per iteration in bytes.
func (r *Region) ReadPerIter() float64 {
	if r.Iters == 0 {
		return 0
	}
	return float64(r.ReadBytes()) / float64(r.Iters)
}

// WritePerIter returns the write volume per iteration in bytes.
func (r *Region) WritePerIter() float64 {
	if r.Iters == 0 {
		return 0
	}
	return float64(r.WriteBytes()) / float64(r.Iters)
}

// Marker is a per-core marker-API instance.
type Marker struct {
	src     Source
	regions map[string]*Region
	open    map[string]memsim.Counts
}

// NewMarker creates a marker layer over a counter source.
func NewMarker(src Source) *Marker {
	return &Marker{src: src, regions: map[string]*Region{}, open: map[string]memsim.Counts{}}
}

// Start opens a region (LIKWID_MARKER_START).
func (m *Marker) Start(name string) {
	m.open[name] = m.src.Counts()
}

// Stop closes a region and accumulates the delta (LIKWID_MARKER_STOP).
func (m *Marker) Stop(name string) error {
	begin, ok := m.open[name]
	if !ok {
		return fmt.Errorf("counters: region %q stopped without start", name)
	}
	delete(m.open, name)
	r := m.region(name)
	r.Calls++
	r.C = r.C.Add(m.src.Counts().Sub(begin))
	return nil
}

// AddWork attributes flops and iterations to a region (the simulator
// replays addresses, not arithmetic, so work is attributed analytically).
func (m *Marker) AddWork(name string, flops, iters int64) {
	r := m.region(name)
	r.Flops += flops
	r.Iters += iters
}

func (m *Marker) region(name string) *Region {
	r, ok := m.regions[name]
	if !ok {
		r = &Region{Name: name}
		m.regions[name] = r
	}
	return r
}

// Region returns a region by name (nil if never touched).
func (m *Marker) Region(name string) *Region { return m.regions[name] }

// Regions returns all regions sorted by name.
func (m *Marker) Regions() []*Region {
	out := make([]*Region, 0, len(m.regions))
	for _, r := range m.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gather merges per-rank markers into one aggregate view, as
// likwid-mpirun does across MPI processes.
func Gather(ms ...*Marker) map[string]*Region {
	agg := map[string]*Region{}
	for _, m := range ms {
		if m == nil {
			continue
		}
		for name, r := range m.regions {
			a, ok := agg[name]
			if !ok {
				a = &Region{Name: name}
				agg[name] = a
			}
			a.Calls += r.Calls
			a.C = a.C.Add(r.C)
			a.Flops += r.Flops
			a.Iters += r.Iters
		}
	}
	return agg
}
