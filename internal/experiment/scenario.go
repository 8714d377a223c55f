// Package experiment turns the substrates (topology, bgp, failure) into
// repeatable experiments: a Scenario bundles one topology + failure +
// scheme, trials replicate it over independent seeds, and sweeps produce
// the figure series the paper reports.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/failure"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
)

// Scheme is a named convergence-improvement scheme: a mutation of the
// base BGP parameters (MRAI policy, queue discipline, ablation flags).
type Scheme struct {
	Name  string
	Apply func(*bgp.Params)
}

// ConstantMRAI is plain BGP with a fixed per-peer MRAI.
func ConstantMRAI(d time.Duration) Scheme {
	return Scheme{
		Name:  fmt.Sprintf("MRAI=%s", formatSeconds(d)),
		Apply: func(p *bgp.Params) { p.MRAI = mrai.Constant(d) },
	}
}

// DegreeMRAI is the Section 4.2 scheme: low-degree routers use low,
// high-degree routers (degree >= threshold) use high.
func DegreeMRAI(threshold int, low, high time.Duration) Scheme {
	return Scheme{
		Name: fmt.Sprintf("deg<%d:%s,>=:%s", threshold, formatSeconds(low), formatSeconds(high)),
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.DegreeDependent(threshold, low, high)
		},
	}
}

// DynamicMRAI is the Section 4.3 unfinished-work ladder.
func DynamicMRAI(levels []time.Duration, upTh, downTh time.Duration) Scheme {
	return Scheme{
		Name:  "dynamic",
		Apply: func(p *bgp.Params) { p.MRAI = mrai.Dynamic(levels, upTh, downTh) },
	}
}

// PaperDynamicMRAI is the exact Fig 7 dynamic configuration.
func PaperDynamicMRAI() Scheme {
	s := DynamicMRAI(mrai.PaperLevels, mrai.PaperUpTh, mrai.PaperDownTh)
	return s
}

// Batching is the Section 4.4 destination-batched queue with a constant
// MRAI (the paper pairs it with 0.5 s).
func Batching(d time.Duration) Scheme {
	return Scheme{
		Name: fmt.Sprintf("batch,MRAI=%s", formatSeconds(d)),
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.Constant(d)
			p.Queue = bgp.QueueBatched
		},
	}
}

// BatchingDynamic combines batching with the dynamic MRAI ladder — the
// paper's best configuration.
func BatchingDynamic(levels []time.Duration, upTh, downTh time.Duration) Scheme {
	return Scheme{
		Name: "batch+dynamic",
		Apply: func(p *bgp.Params) {
			p.MRAI = mrai.Dynamic(levels, upTh, downTh)
			p.Queue = bgp.QueueBatched
		},
	}
}

// Custom wraps an arbitrary parameter mutation.
func Custom(name string, apply func(*bgp.Params)) Scheme {
	return Scheme{Name: name, Apply: apply}
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.4gs", d.Seconds())
}

// Scenario is one fully specified simulation: build the topology, run to
// initial convergence, inject the failure, and measure re-convergence.
type Scenario struct {
	Topology topology.Spec
	Failure  failure.Spec
	Scheme   Scheme
	// Base supplies the non-scheme simulation parameters; zero value
	// means bgp.DefaultParams().
	Base *bgp.Params
	// PolicyRatio, when positive, enables Gao–Rexford routing policies
	// with relationships inferred from node degrees at this ratio
	// (typical: 1.5). Zero keeps the paper's policy-free configuration.
	// Degree inference can leave node pairs without any valley-free path.
	PolicyRatio float64
	// PolicyHierarchical enables Gao–Rexford policies with BFS-hierarchy
	// relationships (full valley-free reachability guaranteed). Takes
	// precedence over PolicyRatio.
	PolicyHierarchical bool
	// WarmStart skips the event-driven initial-convergence phase: the
	// snapshot backend's fixpoint is installed as the converged state and
	// the trial proceeds straight to failure injection
	// (bgp.Params.WarmStart). Window normalization makes the post-failure
	// figures byte-identical to the cold-started trial.
	WarmStart bool
	Seed      int64
}

// Result captures one trial's measurements.
type Result struct {
	Delay time.Duration
	// WindowStart is the absolute simulated time of the failure, the
	// anchor for trace analysis.
	WindowStart   time.Duration
	Messages      int
	Announcements int
	Withdrawals   int
	Processed     int
	Discarded     int
	RouteChanges  int
	FailedNodes   int
	Nodes         int
}

// Run executes the scenario once. Seed controls every random choice, so
// identical scenarios produce identical results. The topology is served
// from the process-wide memo (see topocache.go); repeated runs of the
// same (spec, seed) share one immutable network.
func Run(sc Scenario) (Result, error) {
	return runScenario(context.Background(), sc, nil)
}

// runScenario is the single trial implementation behind Run, RunTrials,
// and Sweep. When pool is non-nil, a simulator previously built on the
// same memoized network is Reset and reused instead of constructing a
// fresh one; results are byte-identical either way. ctx cancellation
// aborts the simulation between events via the engine's probe; it can
// never alter the results of a run that completes. The RNG stream
// derivation (topology, failure, sim — in that order off the root) is
// load-bearing: each Split advances the root, so the splits must happen
// unconditionally even when the topology comes from the cache.
func runScenario(ctx context.Context, sc Scenario, pool *simPool) (Result, error) {
	root := des.NewRNG(sc.Seed)
	topoRNG := root.Split("topology")
	failRNG := root.Split("failure")

	net, err := sharedTopoCache.build(sc.Topology, sc.Seed, topoRNG)
	if err != nil {
		return Result{}, fmt.Errorf("build topology: %w", err)
	}
	params := bgp.DefaultParams()
	if sc.Base != nil {
		params = *sc.Base
	}
	params.Seed = root.Split("sim").Int63()
	// The topology spec's prefix dimension maps onto the simulator's
	// table-size knob before the scheme runs, so a scheme (or ablation)
	// can still override it deliberately.
	if sc.Topology.PrefixesPerOrigin > 0 {
		params.PrefixesPerAS = sc.Topology.PrefixesPerOrigin
	}
	if sc.Scheme.Apply != nil {
		sc.Scheme.Apply(&params)
	}
	if sc.WarmStart {
		params.WarmStart = true
	}
	switch {
	case sc.PolicyHierarchical, sc.PolicyRatio > 0:
		// Annotations come from the process-wide memo so every trial on a
		// memoized network shares one Relationships value — which also
		// lets warm-started trials share one snapshot fixpoint (bgp's
		// snapshot cache keys on the pointer pair).
		rs, err := relationshipsFor(net, sc.PolicyHierarchical, sc.PolicyRatio)
		if err != nil {
			return Result{}, fmt.Errorf("annotate policy: %w", err)
		}
		params.Policy = rs
	case sc.Topology.Relationships != "":
		// The spec itself names the annotation (topogen's -rel modes): the
		// DES policy path and the snapshot backend consume the identical
		// derivation, with the explicit Policy* scenario fields taking
		// precedence above.
		rs, err := relationshipsForSpec(net, sc.Topology)
		if err != nil {
			return Result{}, fmt.Errorf("annotate policy: %w", err)
		}
		params.Policy = rs
	}
	sim := pool.take(net)
	if sim != nil {
		err = sim.Reset(params)
	} else {
		sim, err = bgp.New(net, params)
	}
	if err != nil {
		return Result{}, fmt.Errorf("build simulator: %w", err)
	}
	nodes, err := failure.Select(net, sc.Failure, failRNG)
	if err != nil {
		return Result{}, fmt.Errorf("select failure: %w", err)
	}
	if done := ctx.Done(); done != nil {
		sim.SetCancel(func() bool { return ctx.Err() != nil })
	}
	delay, err := sim.ConvergeAndFail(nodes)
	if err != nil {
		// Surface cancellation as the context's own error; the aborted
		// simulator is left unpooled (its state is mid-run).
		if errors.Is(err, des.ErrCanceled) && ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{}, err
	}
	sim.SetCancel(nil)
	col := sim.Collector()
	res := Result{
		Delay:         delay,
		WindowStart:   col.WindowStart(),
		Messages:      col.Messages(),
		Announcements: col.Announcements,
		Withdrawals:   col.Withdrawals,
		Processed:     col.Processed,
		Discarded:     col.Discarded,
		RouteChanges:  col.RouteChanges(),
		FailedNodes:   len(nodes),
		Nodes:         net.NumNodes(),
	}
	pool.put(net, sim)
	return res, nil
}

// Stats aggregates replicated trials.
type Stats struct {
	N            int
	MeanDelay    time.Duration
	StdDelay     time.Duration
	MeanMessages float64
	StdMessages  float64
	MeanDiscard  float64
	Results      []Result
}

// Seed-derivation policy. Trial seeds step +1 from the cell's base seed,
// sweep x cells are spaced seedStrideX apart, and series (when worlds are
// not shared) are spaced seedStrideSeries apart. Sweep validates that the
// grid fits inside these strides, so RNG streams can never silently
// overlap across cells. The derivation is pinned by TestSeedDerivationPinned:
// changing it changes every recorded figure in results/.
const (
	seedStrideX      = 1000
	seedStrideSeries = 1_000_000
)

// trialSeed derives the seed of trial i from a cell's base seed.
func trialSeed(base int64, i int) int64 { return base + int64(i) }

// cellSeed derives the base seed of sweep cell (si, xi). With sameWorld
// set, every series shares the per-x seed (paired comparison).
func cellSeed(base int64, si, xi int, sameWorld bool) int64 {
	off := int64(xi) * seedStrideX
	if !sameWorld {
		off += int64(si) * seedStrideSeries
	}
	return base + off
}

// RunTrials executes the scenario n times with seeds Seed, Seed+1, ...
// (fresh topology, failure draw, and simulation randomness per trial) and
// aggregates. It is the fully serial form of RunTrialsParallel; both
// share one implementation, so their results are identical by
// construction.
func RunTrials(sc Scenario, n int) (Stats, error) {
	return runTrials(context.Background(), sc, n, 1)
}

func aggregate(results []Result) Stats {
	n := float64(len(results))
	var sumD, sumM, sumDisc float64
	for _, r := range results {
		sumD += r.Delay.Seconds()
		sumM += float64(r.Messages)
		sumDisc += float64(r.Discarded)
	}
	meanD, meanM := sumD/n, sumM/n
	var varD, varM float64
	for _, r := range results {
		dd := r.Delay.Seconds() - meanD
		dm := float64(r.Messages) - meanM
		varD += dd * dd
		varM += dm * dm
	}
	varD /= n
	varM /= n
	return Stats{
		N:            len(results),
		MeanDelay:    time.Duration(meanD * float64(time.Second)),
		StdDelay:     time.Duration(math.Sqrt(varD) * float64(time.Second)),
		MeanMessages: meanM,
		StdMessages:  math.Sqrt(varM),
		MeanDiscard:  sumDisc / n,
		Results:      results,
	}
}
