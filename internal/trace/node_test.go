package trace

import (
	"fmt"
	"strings"
	"testing"

	"cloversim/internal/core"
	"cloversim/internal/decomp"
	"cloversim/internal/machine"
)

// TestNodeGroups: on every preset at 1 core, a prime count, half the
// cores and all of them, with no shape and with CloverLeaf's subdomain
// extents, every active core lands in exactly one group, groups come
// in first-core order, and each group's first core gets the pressure,
// node fraction, active sockets and seed of that core.
func TestNodeGroups(t *testing.T) {
	for _, spec := range machine.AllPresets() {
		cores := spec.Cores()
		prime := cores - 1
		for !decomp.IsPrime(prime) {
			prime--
		}
		for _, active := range []int{1, prime, cores / 2, cores} {
			subs := decomp.Decompose(active, 15360, 15360)
			extent := func(c int) [2]int { return [2]int{subs[c].XSpan(), subs[c].YSpan()} }
			for _, shape := range []func(int) [2]int{nil, extent} {
				what := fmt.Sprintf("%s at %d cores, shape %v", spec.Name, active, shape != nil)
				node := Node{Spec: spec, Active: active, PFOn: true, Seed: 11}
				key := func(c int) string {
					k := fmt.Sprint(spec.ActiveInDomain(active, spec.DomainOf(c)))
					if shape != nil {
						k += fmt.Sprint(shape(c))
					}
					return k
				}
				groups := node.Groups(shape)
				owner := map[string]int{}
				for i, g := range groups {
					if _, dup := owner[key(g.First)]; dup {
						t.Errorf("%s: groups %d and %d replay alike", what, owner[key(g.First)], i)
					}
					owner[key(g.First)] = i
					if i > 0 && g.First <= groups[i-1].First {
						t.Errorf("%s: group %d starts at core %d, after group %d at %d", what, i, g.First, i-1, groups[i-1].First)
					}
				}
				members := make([]int, len(groups))
				for c := 0; c < active; c++ {
					i, ok := owner[key(c)]
					if !ok {
						t.Fatalf("%s: core %d is in no group", what, c)
					}
					if c < groups[i].First {
						t.Errorf("%s: core %d precedes its group's first core %d", what, c, groups[i].First)
					}
					members[i]++
				}
				for i, g := range groups {
					if g.Count != members[i] {
						t.Errorf("%s: group %d counts %d cores, has %d", what, i, g.Count, members[i])
					}
					x := node.Core(g.First)
					want := core.Context{
						Pressure:      spec.PressureAt(g.First, active),
						NodeFraction:  float64(active) / float64(cores),
						ActiveSockets: spec.ActiveSockets(active),
						PFOn:          true,
					}
					if x.ctx != want {
						t.Errorf("%s: core %d runs under %+v, want %+v", what, g.First, x.ctx, want)
					}
					e := core.NewStoreEngine(nil, spec)
					e.Seed(11 ^ uint64(g.First+1)*0x9e3779b97f4a7c15)
					if x.e.Checkpoint() != e.Checkpoint() {
						t.Errorf("%s: core %d's engine is not seeded from the node seed and its index", what, g.First)
					}
				}
			}
		}
	}
}

// TestNodeEachReturnsLowestGroupError: groups replay on their first
// core's executor, a panicking group's error names its first core, and
// when several panic the lowest group's error comes back.
func TestNodeEachReturnsLowestGroupError(t *testing.T) {
	icx := machine.ICX8360Y()
	node := Node{Spec: icx, Active: 45}
	groups := node.Groups(nil)
	if len(groups) != 2 {
		t.Fatalf("45 ICX cores give %d groups, want 2: the two full domains and the one 9 cores fill", len(groups))
	}
	got := make([]float64, len(groups))
	if err := node.Each(groups, func(i int, x *Executor) { got[i] = x.ctx.Pressure }); err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if want := icx.PressureAt(g.First, 45); got[i] != want {
			t.Errorf("group %d replayed at pressure %v, want core %d's %v", i, got[i], g.First, want)
		}
	}
	for from := range groups {
		err := node.Each(groups, func(i int, _ *Executor) {
			if i >= from {
				panic(fmt.Sprintf("bug in group %d", i))
			}
		})
		want := fmt.Sprintf("core group at core %d panicked: bug in group %d", groups[from].First, from)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("groups %d.. panicking: error %v, want %q", from, err, want)
		}
	}
}
