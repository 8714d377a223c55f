package bgp

import (
	"fmt"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// These tests pin the incremental decision process to the full scan it
// replaces: with every router's incremental flag cleared (forceFullScan)
// and nothing else changed, every observable of a run — convergence
// delay, every collector counter, and every router's final route to
// every destination — must be identical. The full scan is the decision
// process damping runs on, so it stays a live reference.

// forceFullScan puts every router of sim on the full-scan decision
// process, as damping does: each touched destination is re-ranked by
// decide2 over the whole Adj-RIB-In, and the best- and second-best
// caches are never consulted. Reset re-derives the flag, so call it
// after New or Reset.
func forceFullScan(sim *Simulator) {
	for _, r := range sim.routers {
		r.incremental = false
	}
}

// TestIncrementalMatchesFullScanAllVariants runs every scheme variant
// the simulator pool supports (the reset_test.go seven: fifo, batched,
// batched-keep-stale, router-batched, damping, per-dest-mrai,
// dynamic-mrai) in both decision modes over several seeds and failure
// sizes, requiring digest equality.
func TestIncrementalMatchesFullScanAllVariants(t *testing.T) {
	rng := des.NewRNG(17)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, nfail := range []int{2, 8} {
		fail := topology.NearestNodes(nw, topology.GridCenter(nw), nfail, nil)
		for _, v := range resetVariants() {
			for seed := int64(1); seed <= 3; seed++ {
				p := equivalenceParams(seed, v.mutate)
				inc, err := New(nw, p)
				if err != nil {
					t.Fatalf("%s seed %d: New: %v", v.name, seed, err)
				}
				got := digestRun(t, inc, nw, fail)

				full, err := New(nw, p)
				if err != nil {
					t.Fatalf("%s seed %d: New full-scan: %v", v.name, seed, err)
				}
				forceFullScan(full)
				want := digestRun(t, full, nw, fail)
				if got.summary != want.summary {
					t.Errorf("%s seed %d fail %d: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
						v.name, seed, nfail, want.summary, got.summary)
				}
			}
		}
	}
}

// TestIncrementalMatchesFullScanPolicy covers the Gao–Rexford decision
// ranking (relationship class before path length), which changes what
// "strictly better" means for the classify fast path.
func TestIncrementalMatchesFullScanPolicy(t *testing.T) {
	rng := des.NewRNG(23)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := topology.HierarchicalRelationships(nw)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	for seed := int64(1); seed <= 3; seed++ {
		p := equivalenceParams(seed, func(pp *Params) { pp.Policy = rel })
		inc, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		got := digestRun(t, inc, nw, fail)

		full, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		forceFullScan(full)
		want := digestRun(t, full, nw, fail)
		if got.summary != want.summary {
			t.Errorf("policy seed %d: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s",
				seed, want.summary, got.summary)
		}
	}
}

// TestIncrementalMatchesFullScanRecovery adds node recovery — revived
// routers restart with empty RIBs and a cleared best-slot cache — on top
// of the failure path.
func TestIncrementalMatchesFullScanRecovery(t *testing.T) {
	rng := des.NewRNG(29)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	run := func(fullScan bool) string {
		sim, err := New(nw, equivalenceParams(7, nil))
		if err != nil {
			t.Fatal(err)
		}
		if fullScan {
			forceFullScan(sim)
		}
		d := digestRun(t, sim, nw, fail)
		sim.ScheduleRecovery(sim.Now()+SettleMargin, fail)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		s := d.summary
		for _, dest := range sim.Destinations() {
			for id := 0; id < nw.NumNodes(); id++ {
				if p, ok := sim.LocPath(id, dest); ok {
					s += fmt.Sprintf("n%d d%d %v\n", id, dest, p)
				}
			}
		}
		return s
	}
	if got, want := run(false), run(true); got != want {
		t.Errorf("recovery: incremental diverged from full scan\nfull:\n%s\nincremental:\n%s", want, got)
	}
}

// TestIncrementalFastPathAllocationFree pins that the classify →
// applyWorkingBest no-op path allocates nothing: a converged router
// receiving announcements that do not beat its incumbents must absorb
// the whole batch (Adj-RIB-In update, classification, decision) with
// zero allocations. This is the path a large failure's exploration
// traffic hits millions of times.
func TestIncrementalFastPathAllocationFree(t *testing.T) {
	nw := topology.NewNetwork(5)
	for spoke := 1; spoke <= 4; spoke++ {
		if err := nw.AddLink(0, spoke, false); err != nil {
			t.Fatal(err)
		}
	}
	p := DefaultParams()
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r := sim.routers[0]
	if !r.incremental {
		t.Fatal("incremental path not active under default params")
	}
	// Two distinct worse-than-incumbent paths for spoke 1's prefix,
	// alternately announced by spokes 2 and 3, so every batch flaps the
	// Adj-RIB-In (no no-op dedup) yet never changes the decision.
	batches := [2][]Update{
		{{From: 2, Dest: 1, Path: Path{2, 900, 1}}, {From: 3, Dest: 1, Path: Path{3, 901, 1}}},
		{{From: 2, Dest: 1, Path: Path{2, 902, 1}}, {From: 3, Dest: 1, Path: Path{3, 903, 1}}},
	}
	// Pre-intern the hand-built paths, as the simulator's own send path
	// does: a zero Ref would make finishProcessing intern on arrival,
	// which is an (amortized) allocation this test must not count.
	for bi := range batches {
		for ui := range batches[bi] {
			batches[bi][ui].Ref = sim.tab.intern(batches[bi][ui].Path)
		}
	}
	r.busyStart = sim.eng.Now()
	r.busy = true
	r.finishProcessing(batches[0]) // warm scratch capacity
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		i++
		r.busy = true
		r.finishProcessing(batches[i%2])
	})
	if avg != 0 {
		t.Errorf("incremental fast path allocates %.2f objects/op, want 0", avg)
	}
	if e, ok := r.locEntryAt(1); !ok || e.from != 1 {
		t.Fatalf("incumbent displaced: %+v ok=%v", e, ok)
	}
	if r.bestSlot[1] != int16(r.slotOf[1]) {
		t.Fatalf("bestSlot[1] = %d, want slot of node 1 (%d)", r.bestSlot[1], r.slotOf[1])
	}
}
