package memsim

import (
	"testing"

	"cloversim/internal/machine"
)

// unarmedMisses loads lines far apart: each is a memory miss sequential
// to no earlier miss, so each takes the prefetch slot at the cursor and
// moves the cursor on.
func unarmedMisses(h *Hierarchy, ref *refHierarchy, lines ...int64) {
	for _, l := range lines {
		h.AccessRange(l, 1, AccessLoad)
		ref.op(l, AccessLoad)
	}
}

// TestFlushKeepsPrefetchCursor pins what Flush and Invalidate leave of
// the prefetcher: empty slots, but the cursor where it was, exactly as
// the oracle does. A loop's replay, and so its memo key, depends on it.
func TestFlushKeepsPrefetchCursor(t *testing.T) {
	spec := machine.ICX8360Y()
	for _, drop := range []struct {
		name  string
		h     func(*Hierarchy)
		count bool
	}{{"Flush", (*Hierarchy).Flush, true}, {"Invalidate", (*Hierarchy).Invalidate, false}} {
		h, ref := New(spec), newRef(spec)
		unarmedMisses(h, ref, 1000, 5000, 9000)
		if h.pfNext != 3 {
			t.Fatalf("%s: three unarmed misses left the cursor at %d", drop.name, h.pfNext)
		}
		drop.h(h)
		ref.flush(drop.count)
		if h.pfNext != 3 || h.Shape().PFCursor != 3 {
			t.Errorf("%s moved the prefetch cursor to %d", drop.name, h.pfNext)
		}
		for i, s := range h.pfSlots {
			if s != -1 {
				t.Errorf("%s left slot %d holding line %d", drop.name, i, s)
			}
		}
		if d := diffState(hierarchyState(h), ref.state()); d != "" {
			t.Errorf("%s: state diverges from the oracle: %s", drop.name, d)
		}
		unarmedMisses(h, ref, 20000)
		if h.pfSlots[3] != 20000 {
			t.Errorf("after %s the next unarmed miss took slot %v, want slot 3", drop.name, h.pfSlots)
		}
		if d := diffState(hierarchyState(h), ref.state()); d != "" {
			t.Errorf("%s then a miss: state diverges from the oracle: %s", drop.name, d)
		}
	}
}

// TestPristine: a hierarchy is pristine after New, Flush and
// Invalidate, and until an access touches cache state; operations that
// only count (NT writes) keep it pristine.
func TestPristine(t *testing.T) {
	h := New(machine.ICX8360Y())
	if !h.pristine() {
		t.Fatal("a new hierarchy is not pristine")
	}
	h.AccessRange(10, 4, AccessWriteNT)
	if !h.pristine() {
		t.Error("NT writes, which bypass the caches, cleared pristine")
	}
	for _, kind := range allKinds {
		h.Flush()
		h.AccessRange(10, 1, kind)
		if touches := kind != AccessWriteNT && kind != AccessWriteStreamed; h.pristine() == touches {
			t.Errorf("after one %s access pristine = %v", kind, h.pristine())
		}
	}
	h.Invalidate()
	if !h.pristine() {
		t.Error("Invalidate did not make the hierarchy pristine")
	}
}
