package bgp

import (
	"testing"

	"bgpsim/internal/topology"
)

// The end-to-end BenchmarkConvergeAndFail* benchmarks moved to
// bench_suite_test.go (package bgp_test), which delegates to the shared
// internal/bench registry also used by cmd/bgpbench. This file keeps the
// micro-benchmarks that need unexported access.

// decideBench measures the full decision-process scan at a given peer
// degree — the cost the incremental path avoids. Degrees 64/128 model
// the highest-degree nodes of the 500-AS Internet-like topologies.
func decideBench(b *testing.B, degree int) {
	peers := make([]Peer, degree)
	alive := make([]bool, degree)
	for i := range peers {
		peers[i] = Peer{Node: i, AS: 10 + i}
		alive[i] = true
	}
	rib := ribOver(peers, 100)
	for i := range peers {
		rib.set(99, i, Path{10 + i, 50, 99})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := decide2(rib, 99, peers, alive, nil, nil, 0); !ok {
			b.Fatal("no route")
		}
	}
}

func BenchmarkDecisionProcess(b *testing.B)     { decideBench(b, 8) }
func BenchmarkDecideDegree16(b *testing.B)      { decideBench(b, 16) }
func BenchmarkDecideDegree64(b *testing.B)      { decideBench(b, 64) }
func BenchmarkDecideDegree128(b *testing.B)     { decideBench(b, 128) }
func BenchmarkRunDecisionDegree16(b *testing.B) { runDecisionBench(b, 16, false) }
func BenchmarkRunDecisionDegree64(b *testing.B) { runDecisionBench(b, 64, false) }
func BenchmarkRunDecisionDegree128(b *testing.B) {
	runDecisionBench(b, 128, false)
}

func BenchmarkRunDecisionDegree128FullScan(b *testing.B) {
	runDecisionBench(b, 128, true)
}

// runDecisionBench measures the per-batch decision work through the real
// router entry point (finishProcessing): a hub router with the given
// degree receives a batch touching degree/2 distinct destinations, one
// announcement each, none of which beats the incumbent (the origin
// spoke's direct route). The incremental path classifies each as a no-op
// in O(1); the full scan pays an O(degree) decide per touched
// destination, O(degree²) per batch — the shape a large failure's
// exploration traffic takes at high-degree nodes.
func runDecisionBench(b *testing.B, degree int, fullScan bool) {
	nw := starNetwork(b, degree)
	sim, err := New(nw, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if fullScan {
		forceFullScan(sim)
	}
	sim.Start()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	const hub = 0
	r := sim.routers[hub]
	// Batch: for each destination d (originated by spoke node d), a
	// different spoke announces a longer (worse) path.
	batch := make([]Update, degree/2)
	for i := range batch {
		dest := ASN(i + 1)
		spoke := i + 2 // never the origin spoke for this dest
		batch[i] = Update{From: spoke, Dest: dest, Path: Path{ASN(spoke), 900, dest}}
	}
	r.busyStart = sim.eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.busy = true
		r.finishProcessing(batch)
	}
}

// starNetwork builds a hub-and-spoke AS graph: node 0 is the hub peered
// with every spoke, giving it the requested degree.
func starNetwork(b *testing.B, degree int) *topology.Network {
	b.Helper()
	nw := topology.NewNetwork(degree + 1)
	for spoke := 1; spoke <= degree; spoke++ {
		if err := nw.AddLink(0, spoke, false); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

func BenchmarkInboxFIFO(b *testing.B) {
	q := &fifoInbox{}
	u := ann(1, 100, 1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(u)
		q.Pop()
	}
}

func BenchmarkInboxBatched(b *testing.B) {
	q := &batchInbox{byDest: make([]int32, 4096), discardStale: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three updates for one destination, two from the same neighbor:
		// exercises the staleness-discard path.
		q.Push(ann(1, i%50, 1))
		q.Push(ann(2, i%50, 2))
		q.Push(ann(1, i%50, 3))
		q.Pop()
		q.TakeDiscarded()
	}
}

func BenchmarkPathHelpers(b *testing.B) {
	p := Path{4, 9, 23, 17, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pathContains(p, 99) {
			b.Fatal("unexpected")
		}
		_ = prependPath(1, p)
	}
}
