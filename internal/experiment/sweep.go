package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Metric selects the quantity a sweep plots.
type Metric int

// Sweep metrics.
const (
	// MetricDelay plots mean convergence delay in seconds.
	MetricDelay Metric = iota + 1
	// MetricMessages plots the mean number of generated update messages.
	MetricMessages
)

// String names the metric for axis labels.
func (m Metric) String() string {
	switch m {
	case MetricDelay:
		return "convergence delay (s)"
	case MetricMessages:
		return "update messages"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// value extracts the metric from aggregated stats.
func (m Metric) value(st Stats) float64 {
	switch m {
	case MetricMessages:
		return st.MeanMessages
	default:
		return st.MeanDelay.Seconds()
	}
}

// Cell produces the scenario for series index si at sweep coordinate x.
// Sweeps fix the seed per (si, x) cell deterministically; Cell
// implementations should leave Scenario.Seed as the base seed.
type Cell func(si int, x float64) Scenario

// SweepConfig controls a sweep run.
type SweepConfig struct {
	// SeriesNames label the curves, one per series index.
	SeriesNames []string
	// Xs are the sweep coordinates (shared by all series).
	Xs []float64
	// Cell builds each scenario.
	Cell Cell
	// Trials is the replication count per cell (>= 1).
	Trials int
	// Metric selects the y value.
	Metric Metric
	// SameWorldAcrossSeries gives every series the same per-x seed so
	// all schemes face identical topologies and failures (paired
	// comparison, lower variance — the paper's methodology). Default on
	// via Sweep().
	SameWorldAcrossSeries bool
	// Workers bounds the pool that executes the (series × x × trial)
	// grid: <= 0 selects GOMAXPROCS, 1 runs fully serially on the
	// calling goroutine. The figure is byte-identical for every worker
	// count — seeds are derived from grid indices alone and results are
	// aggregated in index order — so only wall-clock time changes.
	Workers int
	// WarmStart runs every cell's trials from the snapshot backend's
	// converged fixpoint instead of simulating initial convergence (see
	// Scenario.WarmStart). Part of the grid definition (it crosses the
	// distributed-execution wire) though the figures it produces are
	// byte-identical to a cold sweep's — window normalization guarantees
	// it — so it is purely a wall-clock lever.
	WarmStart bool
	// Progress, when set, is called after each completed cell. Calls are
	// serialized (never concurrent) and done increases strictly
	// monotonically even when cells complete out of order under a
	// parallel sweep.
	Progress func(done, total int)
}

// Sweeper executes one sweep grid and returns the assembled figure. The
// local executor is Sweep (via SweepContext); internal/dist provides a
// coordinator-backed executor that farms the grid out to remote workers
// while producing byte-identical figures.
type Sweeper func(SweepConfig) (Figure, error)

// NormalizeSweep validates cfg and fills defaulted fields (Trials,
// Metric). It rejects empty grids and grids that would overlap RNG
// streams across cells: trial seeds step +1 inside a cell, so a cell may
// hold at most seedStrideX trials, and the x axis must fit inside the
// series stride. Sweep and every distributed executor share this exact
// validation, so a grid is legal locally iff it is legal remotely.
func NormalizeSweep(cfg SweepConfig) (SweepConfig, error) {
	if len(cfg.SeriesNames) == 0 || len(cfg.Xs) == 0 {
		return cfg, fmt.Errorf("experiment: empty sweep")
	}
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	if cfg.Trials > seedStrideX {
		return cfg, fmt.Errorf("experiment: %d trials per cell exceeds the cell seed stride %d; RNG streams would overlap across cells", cfg.Trials, seedStrideX)
	}
	if max := seedStrideSeries / seedStrideX; len(cfg.Xs) > max {
		return cfg, fmt.Errorf("experiment: %d sweep points exceed the series seed stride (max %d); RNG streams would overlap across series", len(cfg.Xs), max)
	}
	if cfg.Metric == 0 {
		cfg.Metric = MetricDelay
	}
	return cfg, nil
}

// Sweep runs a grid of scenarios and assembles a Figure. Each cell is
// replicated Trials times; the per-cell seed is derived from the base
// scenario seed, the x index, and (unless SameWorldAcrossSeries) the
// series index — see cellSeed. The whole (series × x × trial) grid is
// fanned out over cfg.Workers goroutines at trial granularity, so one
// slow cell cannot serialize the pool; results are aggregated in index
// order, making the figure independent of worker count and completion
// order.
func Sweep(cfg SweepConfig) (Figure, error) {
	return SweepContext(context.Background(), cfg)
}

// SweepContext is Sweep with cancellation: when ctx is canceled,
// unstarted trials are skipped, in-flight simulations abort at the
// engine's next cancellation probe, and the context error is returned.
// Cancellation can never alter the figure of a sweep that completes.
func SweepContext(ctx context.Context, cfg SweepConfig) (Figure, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return Figure{}, err
	}
	workers := normalizeWorkers(cfg.Workers)

	// Materialize every cell's scenario up front on this goroutine, so
	// the Cell callback never needs to be concurrency-safe.
	nx := len(cfg.Xs)
	total := len(cfg.SeriesNames) * nx
	cells := make([]Scenario, total)
	for si := range cfg.SeriesNames {
		for xi := range cfg.Xs {
			cells[si*nx+xi] = CellScenario(cfg, si, xi)
		}
	}

	// One job per trial; job j is trial j%Trials of cell j/Trials.
	results := make([]Result, total*cfg.Trials)
	errs := make([]error, total*cfg.Trials)
	var (
		failed    atomic.Bool
		mu        sync.Mutex // guards remaining, doneCells, Progress calls
		doneCells int
		remaining = make([]int, total)
	)
	for c := range remaining {
		remaining[c] = cfg.Trials
	}
	pool := newSimPool()
	forEachIndex(len(results), workers, func(j int) {
		c := j / cfg.Trials
		if failed.Load() {
			errs[j] = errSkipped
			return
		}
		trial := cells[c]
		trial.Seed = trialSeed(trial.Seed, j%cfg.Trials)
		results[j], errs[j] = runScenario(ctx, trial, pool)
		if errs[j] != nil {
			failed.Store(true)
			return
		}
		mu.Lock()
		remaining[c]--
		if remaining[c] == 0 {
			doneCells++
			if cfg.Progress != nil {
				cfg.Progress(doneCells, total)
			}
		}
		mu.Unlock()
	})

	if err := firstSweepError(cfg, errs); err != nil {
		return Figure{}, err
	}
	return assembleFigure(cfg, results), nil
}

// firstSweepError scans per-trial errors in (series, x, trial) order and
// returns the first real one annotated with its grid coordinates.
func firstSweepError(cfg SweepConfig, errs []error) error {
	nx := len(cfg.Xs)
	for si, name := range cfg.SeriesNames {
		for xi, x := range cfg.Xs {
			c := si*nx + xi
			cellErrs := errs[c*cfg.Trials : (c+1)*cfg.Trials]
			if i, err := firstTrialError(cellErrs); err != nil {
				return fmt.Errorf("series %q x=%v: trial %d: %w", name, x, i, err)
			}
		}
	}
	return nil
}

// assembleFigure aggregates a completed grid's per-trial results (flat,
// cell-major with trials innermost — index (si·len(Xs)+xi)·Trials+t)
// into the figure. It is the single merge implementation behind the
// local Sweep and the distributed coordinator, and it consumes results
// in fixed (series, x, trial) order, so a figure's bytes depend only on
// the trial results, never on where or in what order they were computed.
func assembleFigure(cfg SweepConfig, results []Result) Figure {
	nx := len(cfg.Xs)
	fig := Figure{YLabel: cfg.Metric.String()}
	for si, name := range cfg.SeriesNames {
		series := Series{Name: name}
		for xi, x := range cfg.Xs {
			c := si*nx + xi
			st := aggregate(results[c*cfg.Trials : (c+1)*cfg.Trials])
			series.Points = append(series.Points, Point{X: x, Y: cfg.Metric.value(st)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// FailureSizesPct is the failure-size axis the paper sweeps (percent of
// routers, 1–20%).
var FailureSizesPct = []float64{1, 2.5, 5, 10, 15, 20}

// MRAISweepSeconds is the MRAI axis used for the V-curve figures.
var MRAISweepSeconds = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.25, 3.0, 4.0}

// SecondsToDuration converts a sweep coordinate in seconds.
func SecondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
