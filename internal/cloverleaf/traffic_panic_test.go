package cloverleaf

import (
	"reflect"
	"strings"
	"testing"

	"cloversim/internal/machine"
	"cloversim/internal/trace"
)

// TestRunTrafficRecoversGroupPanic is the regression lock for the
// once-dead error path in RunTraffic: a panicking loop inside one rank
// group must come back as an error naming the group — failing one
// scenario — instead of killing the whole process (which, under
// sweepd, is a worker serving many campaigns).
func TestRunTrafficRecoversGroupPanic(t *testing.T) {
	trafficGroupHook = func(int, []LoopInstance) {
		panic("injected loop bug")
	}
	t.Cleanup(func() { trafficGroupHook = nil })

	o := TrafficOptions{
		Machine:     machine.ICX8360Y(),
		Ranks:       4,
		GridX:       512,
		GridY:       512,
		MaxRows:     4,
		HotspotOnly: true,
	}
	res, err := RunTraffic(o)
	if err == nil {
		t.Fatal("RunTraffic returned no error with every rank group panicking")
	}
	if res != nil {
		t.Fatalf("RunTraffic returned a result alongside the error: %+v", res)
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected loop bug") {
		t.Errorf("error %v does not carry the recovered panic", err)
	}

	// The first error is deterministic: the lowest-ranked group, not
	// whichever goroutine the scheduler finished first. Rank i runs on
	// core i.
	if !strings.Contains(err.Error(), "core group at core 0 ") {
		t.Errorf("error %v, want the rank-0 group's error reported first", err)
	}

	// A healed run on the same options succeeds.
	trafficGroupHook = nil
	if _, err := RunTraffic(o); err != nil {
		t.Fatalf("healed RunTraffic failed: %v", err)
	}
}

// TestRunTrafficSingleGroupPanic: only one group panics; the error
// still surfaces (no lost failures) and names that group.
func TestRunTrafficSingleGroupPanic(t *testing.T) {
	trafficGroupHook = func(firstRank int, _ []LoopInstance) {
		if firstRank != 0 {
			panic("injected bug in a non-first group")
		}
	}
	t.Cleanup(func() { trafficGroupHook = nil })

	o := TrafficOptions{
		Machine:     machine.ICX8360Y(),
		Ranks:       6, // decomposes into multiple subdomain shapes
		GridX:       512,
		GridY:       512,
		MaxRows:     4,
		HotspotOnly: true,
	}
	_, err := RunTraffic(o)
	if err == nil {
		t.Skip("decomposition produced a single rank group; nothing panicked")
	}
	if !strings.Contains(err.Error(), "injected bug in a non-first group") {
		t.Errorf("error %v does not carry the recovered panic", err)
	}
}

// TestRunTrafficReplayPanicUnderMemo: a loop whose replay panics inside
// the shared loop memo (here a read array moved past memsim's range)
// fails the study with that panic, as the group's error, without
// stranding the other rank groups waiting on the same key or leaving a
// result behind: a healed study on the same memo matches a fresh one.
func TestRunTrafficReplayPanicUnderMemo(t *testing.T) {
	trafficGroupHook = func(_ int, loops []LoopInstance) {
		loops[0].Loop.Reads[0].A.Base = 1 << 50
	}
	t.Cleanup(func() { trafficGroupHook = nil })

	memo := trace.NewMemo()
	o := TrafficOptions{
		Machine:     machine.ICX8360Y(),
		Ranks:       8,
		GridX:       512,
		GridY:       512,
		MaxRows:     4,
		HotspotOnly: true,
		Memo:        memo,
	}
	_, err := RunTraffic(o)
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "outside the simulated range") {
		t.Fatalf("RunTraffic error %v, want the replay's recovered range panic", err)
	}
	if st := memo.Stats(); st.Hits != 0 {
		t.Errorf("memo served %d loops of a study whose first replay panicked", st.Hits)
	}

	trafficGroupHook = nil
	healed, err := RunTraffic(o)
	if err != nil {
		t.Fatalf("healed RunTraffic failed: %v", err)
	}
	o.Memo = nil
	fresh, err := RunTraffic(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(healed, fresh) {
		t.Error("a study on the memo the panics went through differs from one on a fresh memo")
	}
}
