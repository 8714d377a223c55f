package main

import (
	"fmt"
	"time"

	"bgpsim"
	"bgpsim/internal/bgp"
	"bgpsim/internal/des"
	"bgpsim/internal/failure"
	"bgpsim/internal/snapshot"
	"bgpsim/internal/stats"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// stormTrialRef is the run-length budget per warm 500-AS trial on
// world 1 (README.md), which sizes a run: four trials at the default
// --seconds.
const stormTrialRef = 7.0

// stormWorld is one 500-AS world ready for trials.
type stormWorld struct {
	seed   int64
	net    *topology.Network
	fail   []int
	params bgp.Params
	sim    *bgp.Simulator
}

// stormCounts are a trial's deterministic work counts: a change that
// only makes the code faster must leave every one of them unchanged.
type stormCounts struct {
	Processed, Discarded, Messages, Packets, RouteChanges, MaxQueueLen, PathsLive, PathsDead int
}

// stormTrial is one measured trial.
type stormTrial struct {
	world              *stormWorld
	seed               int64
	reset, warm, storm time.Duration
	use                usage
	counts             stormCounts
}

// stormScenario is bgpsim.LargeScale500 (shrunk to 60 ASes when tiny).
func stormScenario(tiny bool) bgpsim.Scenario {
	sc := bgpsim.LargeScale500()
	if tiny {
		sc.Topology = bgpsim.InternetLike(60)
	}
	return sc
}

// buildStormWorld builds world w the way bgpsim.Run builds scenario seed
// w (same topology and failure streams), computes its snapshot fixpoint
// and constructs its simulator, returning the three layer times, and
// installs the fixpoint once.
func buildStormWorld(sc bgpsim.Scenario, params bgp.Params, w int64, sp *spanRecorder, parent int) (*stormWorld, [3]time.Duration, int, error) {
	var took [3]time.Duration
	root := des.NewRNG(w)
	topoRNG, failRNG := root.Split("topology"), root.Split("failure")

	id, t := sp.begin("topology.build", parent), time.Now()
	net, err := sc.Topology.Build(topoRNG)
	took[0] = time.Since(t)
	sp.end(id)
	if err != nil {
		return nil, took, 0, fmt.Errorf("build world %d: %w", w, err)
	}
	id, t = sp.begin("snapshot.compute", parent), time.Now()
	res, err := snapshot.Compute(net, snapshot.Config{})
	took[1] = time.Since(t)
	sp.end(id)
	if err != nil {
		return nil, took, 0, fmt.Errorf("snapshot world %d: %w", w, err)
	}
	id, t = sp.begin("bgp.new", parent), time.Now()
	sim, err := bgp.New(net, params)
	took[2] = time.Since(t)
	sp.end(id)
	if err != nil {
		return nil, took, 0, fmt.Errorf("simulator world %d: %w", w, err)
	}
	fail, err := failure.Select(net, sc.Failure, failRNG)
	if err != nil {
		return nil, took, 0, fmt.Errorf("failure world %d: %w", w, err)
	}
	// One snapshot install fills bgp's per-network snapshot cache, so
	// the first timed trial starts as warm as the rest.
	id = sp.begin("bgp.warmstart", parent)
	err = sim.ConvergeInitial()
	sp.end(id)
	if err != nil {
		return nil, took, 0, fmt.Errorf("warm start world %d: %w", w, err)
	}
	return &stormWorld{seed: w, net: net, fail: fail, params: params, sim: sim}, took, res.Rounds(), nil
}

// setupStorm builds every world setupReps times and keeps the last set;
// setup_s and the setup-layer metrics are medians over the repetitions.
func setupStorm(cfg config, o *outcome) ([]*stormWorld, error) {
	sc := stormScenario(cfg.tiny)
	params := bgp.DefaultParams()
	sc.Scheme.Apply(&params)
	params.WarmStart = true

	var reps []usage
	var build, snap, newSim []float64
	var worlds []*stormWorld
	rounds := 0
	for rep := 0; rep < setupReps; rep++ {
		worlds = nil
		var sum [3]time.Duration
		rounds = 0
		id, m := o.spans.begin("setup", -1), startMeter()
		for _, w := range cfg.worlds {
			world, took, r, err := buildStormWorld(sc, params, w, o.spans, id)
			if err != nil {
				return nil, err
			}
			worlds = append(worlds, world)
			rounds += r
			for i := range sum {
				sum[i] += took[i]
			}
		}
		reps = append(reps, m.stop())
		o.spans.end(id)
		build = append(build, sum[0].Seconds())
		snap = append(snap, sum[1].Seconds())
		newSim = append(newSim, sum[2].Seconds())
	}
	setSetup(o, reps)
	o.set("topology.build_s", stats.Median(build))
	o.set("snapshot.compute_s", stats.Median(snap))
	o.set("snapshot.rounds", float64(rounds))
	o.set("bgp.new_s", stats.Median(newSim))
	return worlds, nil
}

// trial runs one warm-started failure trial: Reset, snapshot install,
// failure, storm to quiescence. tr, when non-nil, receives every event.
func (w *stormWorld) trial(seed int64, tr trace.Tracer, sp *spanRecorder) (stormTrial, error) {
	p := w.params
	p.Seed = seed
	p.Tracer = tr
	st := stormTrial{world: w, seed: seed}

	op := sp.begin("op", -1)
	m := startMeter()
	id, t := sp.begin("bgp.reset", op), time.Now()
	err := w.sim.Reset(p)
	st.reset = time.Since(t)
	sp.end(id)
	if err != nil {
		return st, err
	}
	id, t = sp.begin("bgp.warmstart", op), time.Now()
	err = w.sim.ConvergeInitial()
	st.warm = time.Since(t)
	sp.end(id)
	if err != nil {
		return st, err
	}
	id, t = sp.begin("bgp.storm", op), time.Now()
	w.sim.ScheduleFailure(w.sim.Now()+bgp.SettleMargin, w.fail)
	err = w.sim.Run()
	st.storm = time.Since(t)
	sp.end(id)
	st.use = m.stop()
	sp.end(op)
	if err != nil {
		return st, err
	}

	col := w.sim.Collector()
	ps := w.sim.PathTableStats()
	st.counts = stormCounts{
		Processed:    col.Processed,
		Discarded:    col.Discarded,
		Messages:     col.Messages(),
		Packets:      col.Packets,
		RouteChanges: col.RouteChanges(),
		MaxQueueLen:  col.MaxQueueLen,
		PathsLive:    ps.Live,
		PathsDead:    ps.Registered - ps.Live,
	}
	return st, nil
}

// stormKey names one (world, seed) trial.
type stormKey struct{ world, seed int64 }

// stormPlan is the run's trial list: n trials cycling through the
// worlds with seeds drawn from the workload seed, the last one a repeat
// of the first so every run checks that its work counts reproduce.
func stormPlan(cfg config, worlds []*stormWorld, n int) []stormKey {
	base := cfg.seed * 1000
	plan := make([]stormKey, 0, n)
	for i := 0; i < n-1; i++ {
		plan = append(plan, stormKey{worlds[i%len(worlds)].seed, base + int64(i)})
	}
	return append(plan, plan[0])
}

// stormPass runs the planned trials, checking each one's routes and the
// reproducibility of its counts against earlier runs of the same trial.
func stormPass(o *outcome, sp *spanRecorder, worlds []*stormWorld, plan []stormKey, tr trace.Tracer, seen map[stormKey]stormCounts, label string) ([]stormTrial, error) {
	byWorld := make(map[int64]*stormWorld, len(worlds))
	for _, w := range worlds {
		byWorld[w.seed] = w
	}
	var out []stormTrial
	for i, k := range plan {
		st, err := byWorld[k.world].trial(k.seed, tr, sp)
		if err != nil {
			return nil, fmt.Errorf("trial world %d seed %d: %w", k.world, k.seed, err)
		}
		problems := checkRoutes(st.world.net, st.world.sim)
		if prev, ok := seen[k]; ok && prev != st.counts {
			problems = append(problems, fmt.Sprintf("work counts %+v differ from an earlier run of the same trial %+v", st.counts, prev))
		}
		seen[k] = st.counts
		o.check(fmt.Sprintf("%s trial %d (world %d seed %d)", label, i, k.world, k.seed), problems)
		o.note("%s trial %d world %d seed %d: reset %.4fs warmstart %.4fs storm %.3fs processed %d ns/update %.0f",
			label, i, k.world, k.seed, st.reset.Seconds(), st.warm.Seconds(), st.storm.Seconds(),
			st.counts.Processed, float64(st.storm.Nanoseconds())/float64(max(1, st.counts.Processed)))
		out = append(out, st)
	}
	return out, nil
}

func runStorm(cfg config, o *outcome) error {
	worlds, err := setupStorm(cfg, o)
	if err != nil {
		return err
	}
	n := cfg.ops(stormTrialRef, 2)
	if cfg.tiny {
		n = 3
	}
	plan := stormPlan(cfg, worlds, n)
	seen := make(map[stormKey]stormCounts)
	if !cfg.trace {
		trials, err := stormPass(o, nil, worlds, plan, nil, seen, "timed")
		if err != nil {
			return err
		}
		var ops []usage
		for _, st := range trials {
			ops = append(ops, st.use)
		}
		setEndToEnd(o, ops, len(trials), len(trials))
		o.note("trial_s.p50 = %.4f s over %d trials", o.metrics["op_s.p50"], len(trials))
		return nil
	}

	// Traced run: the first k distinct trials untraced, then again traced.
	k := max(1, n/2)
	plan = plan[:k]
	plain, err := stormPass(o, nil, worlds, plan, nil, seen, "untraced")
	if err != nil {
		return err
	}
	counter := &eventCounter{}
	traced, err := stormPass(o, o.spans, worlds, plan, counter, seen, "traced")
	if err != nil {
		return err
	}
	var pu, tu usage
	var reset, warm, storm []float64
	var stormNs, processed, discarded int64
	var sum stormCounts
	for i, st := range plain {
		pu.add(st.use)
		tu.add(traced[i].use)
		reset = append(reset, st.reset.Seconds())
		warm = append(warm, st.warm.Seconds())
		storm = append(storm, st.storm.Seconds())
		stormNs += st.storm.Nanoseconds()
		c := st.counts
		processed += int64(c.Processed)
		discarded += int64(c.Discarded)
		sum.Messages += c.Messages
		sum.Packets += c.Packets
		sum.RouteChanges += c.RouteChanges
		sum.MaxQueueLen += c.MaxQueueLen
		sum.PathsLive += c.PathsLive
		sum.PathsDead += c.PathsDead
	}
	per := func(v int) float64 { return float64(v) / float64(k) }
	o.set("bgp.reset_s", stats.Median(reset))
	o.set("bgp.warmstart_s", stats.Median(warm))
	o.set("bgp.storm_s", stats.Median(storm))
	o.set("bgp.storm_ns_per_update", float64(stormNs)/float64(max(1, processed)))
	o.set("bgp.updates_processed", float64(processed)/float64(k))
	o.set("bgp.updates_discarded", float64(discarded)/float64(k))
	o.set("bgp.discard_ratio", float64(discarded)/float64(max(1, processed+discarded)))
	o.set("bgp.messages", per(sum.Messages))
	o.set("bgp.packets", per(sum.Packets))
	o.set("bgp.route_changes", per(sum.RouteChanges))
	o.set("bgp.max_queue_len", per(sum.MaxQueueLen))
	o.set("bgp.paths_live", per(sum.PathsLive))
	o.set("bgp.paths_dead", per(sum.PathsDead))
	setGoStats(o, pu, k)
	counter.set(o, k)
	o.set("des.ns_per_event", float64(stormNs)/float64(max(1, counter.events())))
	o.set("trace.overhead_s", (tu.cpu-pu.cpu).Seconds()/float64(k))
	setSpanSelfTimes(o, k)
	return nil
}
