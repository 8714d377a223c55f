package des

import (
	"fmt"
	"testing"
)

// These tests pin the fused same-time dispatch (on in every NewEngine) to
// the plain queued engine, obtained by clearing the unexported fuse
// flag: the execution schedule — which handlers run, at what clock, in
// what order — must be identical with fusion on or off, for workloads
// heavy in the zero-delay chains fusion accelerates, with cancellations
// and nested scheduling mixed in.

// fusionTrace runs a deterministic self-scheduling workload and records
// the (label, now) execution order.
func fusionTrace(t *testing.T, fuse bool) []string {
	t.Helper()
	e := NewEngine()
	e.fuse = fuse
	rng := NewRNG(42)
	var out []string
	note := func(label string) { out = append(out, fmt.Sprintf("%s@%d", label, e.Now())) }

	var spawn func(depth, id int)
	spawn = func(depth, id int) {
		note(fmt.Sprintf("d%d-%d", depth, id))
		if depth >= 4 {
			return
		}
		// A zero-delay chain (the fusion target), a sibling at the same
		// instant (blocks fusion for the second), and a future event.
		e.Schedule(0, func() { spawn(depth+1, id*10) })
		e.Schedule(0, func() { spawn(depth+1, id*10+1) })
		e.Schedule(Time(1+rng.Intn(5)), func() { spawn(depth+1, id*10+2) })
		// A canceled zero-delay event must not fire in either mode.
		ev := e.Schedule(0, func() { note("CANCELED") })
		e.Cancel(ev)
	}
	e.Schedule(0, func() { spawn(0, 1) })
	e.Schedule(3, func() { note("late") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFusionPreservesExecutionOrder(t *testing.T) {
	plain := fusionTrace(t, false)
	fused := fusionTrace(t, true)
	if len(plain) != len(fused) {
		t.Fatalf("event counts differ: plain %d, fused %d", len(plain), len(fused))
	}
	for i := range plain {
		if plain[i] != fused[i] {
			t.Fatalf("schedules diverge at %d: plain %q, fused %q", i, plain[i], fused[i])
		}
	}
	for _, s := range fused {
		if s == "CANCELED" {
			t.Fatal("canceled fused event fired")
		}
	}
}

// TestFusionReservesSeqStream pins that fusion consumes the same
// sequence numbers the queued path would: after identical schedule
// calls, the next queued event's key is identical in both modes.
func TestFusionReservesSeqStream(t *testing.T) {
	key := func(fuse bool) string {
		e := NewEngine()
		e.fuse = fuse
		e.Schedule(0, func() {}) // fused candidate
		e.Schedule(0, func() {}) // blocked (slot occupied)
		e.Schedule(1, func() {})
		next := e.peekNext()
		return fmt.Sprintf("%v/%d/pending=%d", next.at, next.seq, e.Pending())
	}
	if plain, fused := key(false), key(true); plain != fused {
		t.Fatalf("next key differs: plain %s, fused %s", plain, fused)
	}
}

// TestFusionAdmission pins the admission condition: an event at the
// current instant is fused only when the slot is free and nothing
// earlier-or-equal is queued.
func TestFusionAdmission(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, func() {})
	if e.imm == nil {
		t.Fatal("first zero-delay event not fused")
	}
	e.Schedule(0, func() {})
	if got := e.queue.Len(); got != 1 {
		t.Fatalf("second same-time event should queue (slot occupied): queue len %d", got)
	}
	// With an event queued at the current instant, no further fusion.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Schedule(5, func() {})
	e.Schedule(0, func() {})
	if e.imm == nil {
		t.Fatal("zero-delay event with only a future event queued should fuse")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

}
