package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
	"bgpsim/internal/stats"
	"bgpsim/internal/trace"
)

// fig3Ref is the run-length budget per paper-scale Fig 3, which sizes a
// run: three figures at the default --seconds. A figure takes 11-17 s
// on the reference host with two workers, and figures differ by seed,
// so a run needs three of them to keep its spread inside the bounds
// (README.md).
const fig3Ref = 9.4

// fig3Slots is the number of committed Fig 3 seeds (Options.Seed 1..16).
const fig3Slots = 16

// fig3Options is the paper configuration of the figure in slot (Options
// seed slot+1); tiny selects the reduced QuickOptions scale.
func fig3Options(tiny bool, slot int) core.Options {
	o := core.DefaultOptions()
	if tiny {
		o = core.QuickOptions()
	}
	o.Seed = int64(slot + 1)
	o.Workers = runtime.NumCPU()
	return o
}

// fig3DigestName names the committed digest table for the scale.
func fig3DigestName(tiny bool) string {
	if tiny {
		return "fig3-tiny"
	}
	return "fig3"
}

// fig3Check compares a rendered figure with the committed digest of its
// slot and, for the paper figure at seed 1, byte for byte with the
// recorded results/fig3.txt.
func fig3Check(rendered string, slot int, want map[int]string, paper string) []string {
	problems := checkDigest("fig3", rendered, want, slot)
	if slot == 0 && paper != "" {
		problems = append(problems, checkSameText("results/fig3.txt", rendered, paper)...)
	}
	return problems
}

// sweepProbe is the Options.Sweeper wrapper of a traced or per-layer
// pass: it delegates to experiment.SweepContext, timing the call, and
// when tr is set installs it as every cell's event tracer.
type sweepProbe struct {
	sp     *spanRecorder
	parent int
	tr     trace.Tracer
	took   time.Duration
}

func (p *sweepProbe) sweep(cfg experiment.SweepConfig) (experiment.Figure, error) {
	if p.tr != nil {
		cell := cfg.Cell
		cfg.Cell = func(si int, x float64) experiment.Scenario {
			sc := cell(si, x)
			base := bgp.DefaultParams()
			if sc.Base != nil {
				base = *sc.Base
			}
			base.Tracer = p.tr
			sc.Base = &base
			return sc
		}
	}
	id, t := p.sp.begin("experiment.sweep", p.parent), time.Now()
	fig, err := experiment.SweepContext(context.Background(), cfg)
	p.took += time.Since(t)
	p.sp.end(id)
	return fig, err
}

// figureRun is one regenerated figure.
type figureRun struct {
	rendered string
	trials   int
	use      usage
	sweep    time.Duration
	cells    []time.Time // Progress callback times
	start    time.Time
}

// runFigure regenerates the figure in slot. With probe set the sweep
// goes through the probe; workers overrides the options' pool size.
func runFigure(e core.Experiment, tiny bool, slot, workers int, probe *sweepProbe, sp *spanRecorder) (figureRun, error) {
	opts := fig3Options(tiny, slot)
	if workers > 0 {
		opts.Workers = workers
	}
	var fr figureRun
	opts.Progress = func(done, total int) { fr.cells = append(fr.cells, time.Now()) }
	op := sp.begin("op", -1)
	if probe != nil {
		probe.sp, probe.parent = sp, op
		opts.Sweeper = probe.sweep
	}
	m := startMeter()
	fr.start = time.Now()
	fig, err := e.Run(opts)
	fr.use = m.stop()
	sp.end(op)
	if err != nil {
		return fr, fmt.Errorf("fig3 seed %d: %w", opts.Seed, err)
	}
	fr.rendered = fig.Render()
	for _, s := range fig.Series {
		fr.trials += len(s.Points) * opts.Trials
	}
	if probe != nil {
		fr.sweep = probe.took
	}
	return fr, nil
}

// setupFig3 looks the experiment up and warms the process with one
// quick-scale sweep, setupReps times; setup_s is the median. The warm-up
// grows the heap and pages in the simulator before the timed figures,
// which a process regenerating several figures pays only once.
func setupFig3(cfg config, o *outcome) (core.Experiment, map[int]string, string, error) {
	var e core.Experiment
	var reps []usage
	for rep := 0; rep < setupReps; rep++ {
		id, m := o.spans.begin("setup", -1), startMeter()
		var err error
		if e, err = core.Lookup("3"); err != nil {
			return e, nil, "", err
		}
		warm := core.QuickOptions()
		warm.Seed = 1000 + int64(rep)
		warm.Workers = runtime.NumCPU()
		if _, err := e.Run(warm); err != nil {
			return e, nil, "", fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, m.stop())
		o.spans.end(id)
	}
	setSetup(o, reps)
	want, err := loadDigests(cfg.root, fig3DigestName(cfg.tiny))
	if err != nil {
		return e, nil, "", err
	}
	var paper string
	if !cfg.tiny {
		b, err := os.ReadFile(filepath.Join(cfg.root, "results", "fig3.txt"))
		if err != nil {
			return e, nil, "", err
		}
		paper = string(b)
	}
	return e, want, paper, nil
}

func runFig3(cfg config, o *outcome) error {
	e, want, paper, err := setupFig3(cfg, o)
	if err != nil {
		return err
	}
	n := cfg.ops(fig3Ref, 1)
	if cfg.tiny {
		n = 2
	}
	if !cfg.trace {
		var ops []usage
		trials := 0
		for j := 0; j < n; j++ {
			slot := seedIndex(cfg.seed, n, j, fig3Slots)
			fr, err := runFigure(e, cfg.tiny, slot, 0, nil, nil)
			if err != nil {
				return err
			}
			ops = append(ops, fr.use)
			trials += fr.trials
			o.check(fmt.Sprintf("figure seed %d", slot+1), fig3Check(fr.rendered, slot, want, paper))
			o.note("figure seed %d: %.3fs, %d trials", slot+1, fr.use.wall.Seconds(), fr.trials)
		}
		setEndToEnd(o, ops, trials, trials)
		return nil
	}

	// Traced run: one figure with the default pool, timed per layer,
	// then the same figure on one worker with the event tracer, so each
	// trial's events arrive in order.
	slot := seedIndex(cfg.seed, n, 0, fig3Slots)
	plain, err := runFigure(e, cfg.tiny, slot, 0, &sweepProbe{}, nil)
	if err != nil {
		return err
	}
	o.check("untraced figure", fig3Check(plain.rendered, slot, want, paper))
	counter := &eventCounter{}
	traced, err := runFigure(e, cfg.tiny, slot, 1, &sweepProbe{tr: counter}, o.spans)
	if err != nil {
		return err
	}
	o.check("traced figure", fig3Check(traced.rendered, slot, want, paper))

	var intervals []float64
	prev := plain.start
	for _, t := range plain.cells {
		intervals = append(intervals, t.Sub(prev).Seconds())
		prev = t
	}
	workers := fig3Options(cfg.tiny, slot).Workers
	o.set("experiment.sweep_s", plain.sweep.Seconds())
	o.set("experiment.cell_interval_s.p50", stats.Median(intervals))
	o.set("experiment.parallel_eff", plain.use.cpu.Seconds()/(plain.use.wall.Seconds()*float64(workers)))
	setGoStats(o, plain.use, plain.trials)
	counter.set(o, traced.trials)
	o.set("des.ns_per_event", float64(plain.use.cpu.Nanoseconds())/float64(max(1, counter.events())))
	o.set("trace.overhead_s", (traced.use.cpu - plain.use.cpu).Seconds())
	setSpanSelfTimes(o, 1)
	o.note("figure seed %d: untraced %.3fs wall %.3fs cpu on %d workers; traced %.3fs on 1 worker",
		slot+1, plain.use.wall.Seconds(), plain.use.cpu.Seconds(), workers, traced.use.wall.Seconds())
	return nil
}
