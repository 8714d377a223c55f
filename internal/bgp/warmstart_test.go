package bgp

import (
	"fmt"
	"testing"

	"bgpsim/internal/des"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/topology"
)

// The differential oracle: the snapshot backend and the event simulator
// must agree, route for route and advertisement for advertisement, on
// the converged (phase-1 quiescent) state — across every scheme variant
// the figures exercise, multi-prefix tables, and both policy
// configurations. Timing schemes change when routes move, never where
// they settle, so one fixpoint serves them all.

func oracleTopology(t *testing.T) (*topology.Network, *topology.Relationships) {
	t.Helper()
	rng := des.NewRNG(11)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := topology.InferRelationships(nw, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return nw, pol
}

// compareConverged runs phase 1 to quiescence and checks the simulator's
// full converged state against the snapshot fixpoint.
func compareConverged(t *testing.T, nw *topology.Network, p Params, res *snapshot.Result) {
	t.Helper()
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	nprefix := max(1, p.PrefixesPerAS)
	for _, dest := range sim.Destinations() {
		as := dest / nprefix
		for id := 0; id < nw.NumNodes(); id++ {
			simPath, simOK := sim.LocPath(id, dest)
			snapPath, snapOK := res.Path(as, id)
			if simOK != snapOK {
				t.Fatalf("n%d d%d: DES has route=%v, snapshot has route=%v", id, dest, simOK, snapOK)
			}
			if !simOK {
				continue
			}
			if len(simPath) != len(snapPath) {
				t.Fatalf("n%d d%d: DES path %v != snapshot path %v", id, dest, simPath, snapPath)
			}
			for i := range simPath {
				if simPath[i] != snapPath[i] {
					t.Fatalf("n%d d%d: DES path %v != snapshot path %v", id, dest, simPath, snapPath)
				}
			}
		}
	}
	// Adjacency-level agreement: an Adj-RIB-In entry exactly where the
	// snapshot says the peer advertises.
	for _, r := range sim.routers {
		for slot, peer := range r.peers {
			for _, dest := range sim.Destinations() {
				as := dest / nprefix
				have := r.adjIn.getSlotRef(slot, dest) != 0
				want := res.Advertises(as, peer.Node, r.id)
				if have != want {
					t.Fatalf("n%d d%d from peer n%d: DES adj-rib-in=%v, snapshot Advertises=%v",
						r.id, dest, peer.Node, have, want)
				}
			}
		}
	}
}

func TestSnapshotOracle(t *testing.T) {
	nw, polInfer := oracleTopology(t)
	for _, pc := range []struct {
		name string
		pol  *topology.Relationships
	}{{"flat", nil}, {"policy", polInfer}} {
		res, err := snapshot.Compute(nw, snapshot.Config{Policy: pc.pol})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range resetVariants() {
			for _, nprefix := range []int{1, 3} {
				// Every simulation is one event loop; the "shards1" leaf
				// keeps the case names of the earlier sharded matrix
				// stable so their history stays comparable.
				t.Run(fmt.Sprintf("%s/%s/k%d/shards1", pc.name, v.name, nprefix), func(t *testing.T) {
					p := equivalenceParams(7, v.mutate)
					p.Policy = pc.pol
					p.PrefixesPerAS = nprefix
					compareConverged(t, nw, p, res)
				})
			}
		}
	}
}

// warmDigest is digestRun without the absolute clock: a warm-started run
// reaches quiescence at a different absolute time than a cold-started
// one (phase 1 never runs), but every window-scoped figure — delay,
// message counts, route changes — and every final route must agree.
func warmDigest(t *testing.T, sim *Simulator, nw *topology.Network, fail []int) string {
	t.Helper()
	delay, err := sim.ConvergeAndFail(fail)
	if err != nil {
		t.Fatal(err)
	}
	col := sim.Collector()
	s := fmt.Sprintf("delay=%v msgs=%d ann=%d wd=%d proc=%d disc=%d rc=%d\n",
		delay, col.Messages(), col.Announcements, col.Withdrawals,
		col.Processed, col.Discarded, col.RouteChanges())
	for _, dest := range sim.Destinations() {
		for id := 0; id < nw.NumNodes(); id++ {
			if p, ok := sim.LocPath(id, dest); ok {
				s += fmt.Sprintf("n%d d%d %v\n", id, dest, p)
			}
		}
	}
	return s
}

// TestWarmStartMatchesCold pins the warm-start contract: for every
// scheme variant, the post-failure figures and final routing state of a
// warm-started trial are byte-identical to the cold-started trial with
// the same parameters.
func TestWarmStartMatchesCold(t *testing.T) {
	nw, polInfer := oracleTopology(t)
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)

	run := func(t *testing.T, p Params) {
		t.Helper()
		cold, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		want := warmDigest(t, cold, nw, fail)
		p.WarmStart = true
		warm, err := New(nw, p)
		if err != nil {
			t.Fatal(err)
		}
		got := warmDigest(t, warm, nw, fail)
		if got != want {
			t.Errorf("warm start diverged from cold start\ncold:\n%s\nwarm:\n%s", want, got)
		}
	}

	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			run(t, equivalenceParams(3, v.mutate))
		})
	}
	t.Run("policy", func(t *testing.T) {
		p := equivalenceParams(3, nil)
		p.Policy = polInfer
		run(t, p)
	})
	t.Run("multiprefix", func(t *testing.T) {
		p := equivalenceParams(3, nil)
		p.PrefixesPerAS = 3
		run(t, p)
	})
}
