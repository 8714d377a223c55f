package bgp

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// These tests pin the router's storm path — fused dispatch, the
// blocked-skip flush, the coalesced MRAI timers and the second-best
// cache — to testdata/stormpath.golden: digests of the same runs
// recorded on the retired baseline path (full decision scan, one
// deferred-flush event per peer, no skip set, no fusion), each checked
// equal to the fast path's digest when it was recorded. digestRun
// captures delay, every collector counter and every router's final
// route, across the scheme variants, seeds and failure sizes the figures
// exercise. The storm path is pure acceleration; any digest difference
// is a bug.

// stormGolden loads testdata/stormpath.golden as case name -> line.
func stormGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/stormpath.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		golden[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// stormGoldenLine renders a run digest in the golden's line format: the
// case name, the summary's sha256, and its first (counter) line, so a
// mismatch shows which counter moved.
func stormGoldenLine(name, summary string) string {
	counters, _, _ := strings.Cut(summary, "\n")
	return fmt.Sprintf("%s %x %s", name, sha256.Sum256([]byte(summary)), counters)
}

// checkStormGolden compares the digest of case name with its recorded
// line.
func checkStormGolden(t *testing.T, golden map[string]string, name string, d runDigest) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Errorf("%s: no line in testdata/stormpath.golden", name)
		return
	}
	if got := stormGoldenLine(name, d.summary); got != want {
		t.Errorf("%s: digest diverged from the recorded baseline\nwant %s\ngot  %s", name, want, got)
	}
}

// TestStormFastLaneOutputNeutral replays the scheme variants × seeds ×
// failure sizes on one pooled simulator.
func TestStormFastLaneOutputNeutral(t *testing.T) {
	golden := stormGolden(t)
	rng := des.NewRNG(17)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fails := [][]int{
		topology.NearestNodes(nw, topology.GridCenter(nw), 2, nil),
		topology.NearestNodes(nw, topology.GridCenter(nw), 8, nil),
	}

	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resetVariants() {
		for seed := int64(1); seed <= 2; seed++ {
			if err := sim.Reset(equivalenceParams(seed, v.mutate)); err != nil {
				t.Fatalf("%s seed %d: Reset: %v", v.name, seed, err)
			}
			name := fmt.Sprintf("OutputNeutral/%s/seed%d", v.name, seed)
			checkStormGolden(t, golden, name, digestRun(t, sim, nw, fails[seed%2]))
		}
	}
}

// TestStormFastLaneZeroDelay drives the configuration fused dispatch
// actually accelerates — zero processing delay and zero internal link
// delay, where delivery and processing-completion land at the same
// instant.
func TestStormFastLaneZeroDelay(t *testing.T) {
	rng := des.NewRNG(23)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	p := equivalenceParams(7, nil)
	p.ProcMin, p.ProcMax = 0, 0
	p.IntDelay = 0
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	checkStormGolden(t, stormGolden(t), "ZeroDelay", digestRun(t, sim, nw, fail))
}

// TestStormFastLaneNoJitter pins coalescing in the non-jittered
// configuration: without jitter, distinct peers' retry timers collide at
// the same instant constantly (a shared deterministic MRAI), so this is
// the densest equal-time stress on the reserved-sequence virtual-timer
// argument.
func TestStormFastLaneNoJitter(t *testing.T) {
	rng := des.NewRNG(29)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	p := equivalenceParams(3, nil)
	p.JitterTimers = false
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	checkStormGolden(t, stormGolden(t), "NoJitter", digestRun(t, sim, nw, fail))
}

// TestStormFastLaneDenseStorm pins the storm path at the fig3 shape the
// smaller digests miss: paper-scale node count, the sweep's lowest MRAI
// (0.25 s), and a 10% geographic failure. At this density, retry timers
// clamped to the current instant collide with queued same-time events
// constantly, which is exactly the interleaving the reserved-sequence
// virtual timers must reproduce (an earlier heuristic coalescing
// diverged here while passing every smaller digest).
func TestStormFastLaneDenseStorm(t *testing.T) {
	golden := stormGolden(t)
	rng := des.NewRNG(41)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(120), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 12, nil)
	mk := func(seed int64) Params {
		p := equivalenceParams(seed, nil)
		p.MRAI = mrai.Constant(250 * time.Millisecond)
		return p
	}
	sim, err := New(nw, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if err := sim.Reset(mk(seed)); err != nil {
			t.Fatalf("seed %d: Reset: %v", seed, err)
		}
		checkStormGolden(t, golden, fmt.Sprintf("DenseStorm/seed%d", seed), digestRun(t, sim, nw, fail))
	}
}

// TestStormFastLaneAcrossModes crosses the storm path with the other
// execution axes: multi-prefix tables and the snapshot warm start. The
// "default" and "warm-start-two-prefixes" rows were recorded under
// sequenced sharding, which reproduced the single engine's schedule
// exactly, so their digests carry over unchanged.
func TestStormFastLaneAcrossModes(t *testing.T) {
	golden := stormGolden(t)
	rng := des.NewRNG(31)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 4, nil)
	modes := []struct {
		name   string
		mutate func(*Params)
	}{
		{"default", func(p *Params) {}},
		{"multi-prefix", func(p *Params) { p.PrefixesPerAS = 3 }},
		{"warm-start", func(p *Params) {
			p.Queue = QueueBatched
			p.WarmStart = true
		}},
		{"warm-start-two-prefixes", func(p *Params) {
			p.Queue = QueueBatched
			p.WarmStart = true
			p.PrefixesPerAS = 2
		}},
	}
	sim, err := New(nw, equivalenceParams(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		if err := sim.Reset(equivalenceParams(2, m.mutate)); err != nil {
			t.Fatalf("%s: Reset: %v", m.name, err)
		}
		checkStormGolden(t, golden, "AcrossModes/"+m.name, digestRun(t, sim, nw, fail))
	}
}

// TestDecide2AgreesWithDecide audits the decision caches at quiescence
// on real post-failure routing tables, for every scheme variant that
// runs the incremental path (all but damping). The scan's runner-up
// must be exactly the same scan's winner with the winner's slot
// disabled; the committed bestSlot must name the scan's winner; and
// every known secondSlot entry (anything but secondInvalid) must equal
// the scan's runner-up.
func TestDecide2AgreesWithDecide(t *testing.T) {
	rng := des.NewRNG(37)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	sim, err := New(nw, equivalenceParams(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	alive := []bool(nil)
	for _, v := range resetVariants() {
		p := equivalenceParams(5, v.mutate)
		if p.Damping != nil {
			continue
		}
		if err := sim.Reset(p); err != nil {
			t.Fatalf("%s: Reset: %v", v.name, err)
		}
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
		for _, r := range sim.routers {
			if !r.alive {
				continue
			}
			if !r.incremental {
				t.Fatalf("%s: n%d not on the incremental path", v.name, r.id)
			}
			for dest := 0; dest < r.ndests; dest++ {
				if r.originates.has(dest) {
					if r.bestSlot[dest] != bestSelf {
						t.Fatalf("%s n%d d%d: originated, bestSlot %d", v.name, r.id, dest, r.bestSlot[dest])
					}
					continue
				}
				_, slot, second, ok := decide2(r.adjIn, dest, r.peers, r.peerAlive, nil, sim.params.Policy, r.id)
				// The runner-up is what the scan picks with the winner dead.
				wantSecond := secondNone
				if ok {
					alive = append(alive[:0], r.peerAlive...)
					alive[slot] = false
					if _, s2, _, ok2 := decide2(r.adjIn, dest, r.peers, alive, nil, sim.params.Policy, r.id); ok2 {
						wantSecond = int16(s2)
					}
				}
				if second != wantSecond {
					t.Fatalf("%s n%d d%d: decide2 runner-up %d, want %d", v.name, r.id, dest, second, wantSecond)
				}
				wantBest := bestNone
				if ok {
					wantBest = int16(slot)
				}
				if r.bestSlot[dest] != wantBest {
					t.Fatalf("%s n%d d%d: cached bestSlot %d, scan says %d", v.name, r.id, dest, r.bestSlot[dest], wantBest)
				}
				if cached := r.secondSlot[dest]; cached != secondInvalid && cached != second {
					t.Fatalf("%s n%d d%d: cached secondSlot %d, scan says %d", v.name, r.id, dest, cached, second)
				}
			}
		}
	}
}

// stormTrialAllocCeiling bounds the allocations of one Reset +
// ConvergeAndFail trial on a warmed simulator: the baseline router
// path's AllocsPerRun for this trial at commit e44783f (114) plus the
// same 10 allocations of slack the differential bound allowed then.
const stormTrialAllocCeiling = 114 + 10

// TestStormFastLaneAllocFree pins that the storm path's bookkeeping does
// not reintroduce steady-state allocation: repeat trials on a reused
// simulator pay only the fixed per-Reset costs (policy objects and the
// like). Tens of thousands of storm events per trial would blow the
// ceiling immediately if the storm loop allocated per event.
func TestStormFastLaneAllocFree(t *testing.T) {
	rng := des.NewRNG(41)
	nw, err := topology.SkewedNetwork(topology.Skewed7030(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	fail := topology.NearestNodes(nw, topology.GridCenter(nw), 3, nil)
	p := equivalenceParams(1, func(pp *Params) { pp.Queue = QueueBatched })
	sim, err := New(nw, p)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up trials materialize every lazy structure (blocked columns,
	// scratch buffers, event and delivery pools).
	for i := 0; i < 2; i++ {
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
		if err := sim.Reset(p); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(3, func() {
		if err := sim.Reset(p); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ConvergeAndFail(fail); err != nil {
			t.Fatal(err)
		}
	})
	if got > stormTrialAllocCeiling {
		t.Fatalf("trial allocates %v times per run, ceiling %d", got, stormTrialAllocCeiling)
	}
}
