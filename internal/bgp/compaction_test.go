package bgp

import (
	"testing"

	"bgpsim/internal/topology"
)

// forceCompaction lowers the sweep thresholds so any quiescent table
// compacts, restoring the defaults on cleanup.
func forceCompaction(t *testing.T) {
	t.Helper()
	minPaths, deadFrac := CompactMinPaths, CompactDeadFraction
	CompactMinPaths, CompactDeadFraction = 1, 0
	t.Cleanup(func() { CompactMinPaths, CompactDeadFraction = minPaths, deadFrac })
}

// TestCompactionBehaviorNeutral pins that the quiescence path-table
// compaction sweep changes nothing observable: a run that compacts (and
// renumbers every live ref) produces byte-identical figures and final
// routes to one that never compacts, and the sweep itself shrinks the
// table.
func TestCompactionBehaviorNeutral(t *testing.T) {
	nw, _ := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	p := equivalenceParams(5, nil)

	plain, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := digestRun(t, plain, nw, fail)
	if got := plain.PathTableStats(); got.Compactions != 0 {
		t.Fatalf("compaction triggered below thresholds: %+v", got)
	}

	forceCompaction(t)
	compacted, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	got := digestRun(t, compacted, nw, fail)
	if got.summary != want.summary {
		t.Errorf("compacted run diverged\nplain:\n%s\ncompacted:\n%s", want.summary, got.summary)
	}
	if st := compacted.PathTableStats(); st.Compactions != 1 {
		t.Fatalf("expected exactly one sweep, got %+v", st)
	}
}

// TestCompactionShrinksTable checks the sweep's actual effect: right
// after a compacted phase 1, the table holds only live paths, far fewer
// than the exploration storm registered.
func TestCompactionShrinksTable(t *testing.T) {
	nw, _ := oracleTopology(t)

	p := equivalenceParams(5, nil)
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	before := sim.PathTableStats()
	if before.Live >= before.Registered {
		t.Fatalf("no dead paths to reclaim: %+v", before)
	}

	forceCompaction(t)
	sim.maybeCompactPaths()
	after := sim.PathTableStats()
	if after.Compactions != 1 {
		t.Fatalf("sweep did not run: %+v", after)
	}
	if after.Registered != before.Live || after.Live != before.Live {
		t.Fatalf("compacted table should hold exactly the live set: before %+v, after %+v",
			before, after)
	}
	// The converged state must survive the renumbering intact.
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if _, ok := sim.LocPath(id, dest); !ok && sim.Alive(id) {
				t.Fatalf("n%d lost its route to d%d across compaction", id, dest)
			}
		}
	}
}

// TestWarmStartMatchesCompactedCold closes the triangle: a cold run that
// compacts at quiescence still matches the warm-started run bit for bit.
func TestWarmStartMatchesCompactedCold(t *testing.T) {
	nw, _ := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)

	p := equivalenceParams(3, nil)
	forceCompaction(t)
	cold, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	want := warmDigest(t, cold, nw, fail)
	if st := cold.PathTableStats(); st.Compactions != 1 {
		t.Fatalf("cold run did not compact: %+v", st)
	}

	p.WarmStart = true
	warm, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	got := warmDigest(t, warm, nw, fail)
	if got != want {
		t.Errorf("warm start diverged from compacted cold start\ncold:\n%s\nwarm:\n%s", want, got)
	}
}
