package trace

import (
	"context"
	"fmt"

	"cloversim/internal/core"
	"cloversim/internal/machine"
	"cloversim/internal/sweep"
)

// Node is one simulated compute node: a machine whose first Active
// cores run under compact pinning (ccNUMA domains fill in order), and
// the knobs all of them share. It is the only way to build an
// Executor, so every core replays under conditions a real node gives
// it: the pressure of its own domain, the node's active fraction and
// sockets, and a seed of its own.
type Node struct {
	Spec   *machine.Spec
	Active int  // active cores, 1..Spec.Cores()
	PFOn   bool // hardware prefetchers on
	// NTStores honours loops' NT write-stream flags (the NT_STORE_DIR
	// build knob of the paper's patched CloverLeaf).
	NTStores bool
	// Seed seeds core i's store engine with Seed ^ (i+1)·0x9e3779b97f4a7c15.
	Seed uint64
	// Memo is the campaign's loop memo, shared by every core; nil means
	// none: every replay simulates, with no dry pass to key it.
	Memo *Memo
}

// Core returns core i's executor.
func (n Node) Core(i int) *Executor {
	x := &Executor{
		spec: n.Spec,
		ctx: core.Context{
			Pressure:      n.Spec.PressureAt(i, n.Active),
			NodeFraction:  float64(n.Active) / float64(n.Spec.Cores()),
			ActiveSockets: n.Spec.ActiveSockets(n.Active),
			PFOn:          n.PFOn,
		},
		ntStores: n.NTStores,
		e:        core.NewStoreEngine(nil, n.Spec),
		memo:     n.Memo,
	}
	x.e.Seed(n.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
	return x
}

// Group is a set of active cores that replay alike: the same shape
// under the same pressure. Its first core's executor replays it once
// for all Count cores.
type Group struct {
	First int // the group's lowest core
	Count int
}

// Groups buckets the active cores by shape(i), such as a rank's
// subdomain extent, and by the number of busy cores in their ccNUMA
// domain, in first-core order. A nil shape gives every core the same
// one.
func (n Node) Groups(shape func(core int) [2]int) []Group {
	type key struct {
		shape [2]int
		busy  int
	}
	index := map[key]int{}
	var groups []Group
	for i := 0; i < n.Active; i++ {
		k := key{busy: n.Spec.ActiveInDomain(n.Active, n.Spec.DomainOf(i))}
		if shape != nil {
			k.shape = shape(i)
		}
		if j, ok := index[k]; ok {
			groups[j].Count++
			continue
		}
		index[k] = len(groups)
		groups = append(groups, Group{First: i, Count: 1})
	}
	return groups
}

// Each runs replay for every group concurrently, each on the executor
// of the group's first core, and returns the lowest group's error. A
// panic in a group's replay, a workload bug or a stream past memsim's
// range, becomes that group's error, naming its first core, so it
// fails the one run instead of the process hosting it.
func (n Node) Each(groups []Group, replay func(i int, x *Executor)) error {
	// One run's bounded fan-out: campaign cancellation is
	// scenario-granular at the sweep engine.
	return sweep.ForEach(context.Background(), len(groups), len(groups), func(i int) (err error) {
		first := groups[i].First
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("trace: core group at core %d panicked: %v", first, p)
			}
		}()
		replay(i, n.Core(first))
		return nil
	})
}
