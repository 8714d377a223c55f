package experiment

import (
	"context"
	"fmt"
	"sync/atomic"
)

// This file is the cell-granularity face of the sweep machinery, the
// contract distributed execution (internal/dist) is built on: a sweep
// grid decomposes into (series, x) cells, each cell's scenario and seeds
// derive from grid indices alone (CellScenario), a cell's trials can be
// executed anywhere (CellRunner.RunCell), and the per-trial results
// merge back into a figure in fixed order (AssembleFigure). Sweep itself
// is the degenerate case: every cell runs in-process.

// CellScenario materializes the scenario of sweep cell (si, xi) exactly
// as Sweep does: the Cell callback builds the base scenario and the
// cell's seed is derived from the grid indices (see cellSeed). cfg must
// be normalized (NormalizeSweep) and the indices in range. Like Sweep,
// it invokes cfg.Cell on the calling goroutine only.
func CellScenario(cfg SweepConfig, si, xi int) Scenario {
	sc := cfg.Cell(si, cfg.Xs[xi])
	sc.Seed = cellSeed(sc.Seed, si, xi, cfg.SameWorldAcrossSeries)
	if cfg.WarmStart {
		sc.WarmStart = true
	}
	return sc
}

// CellRunner executes single sweep cells, retaining a simulator pool
// across calls so trials that share a memoized topology (paired series,
// repeated jobs on one worker) skip simulator construction. The zero
// value is not usable; construct with NewCellRunner. Safe for concurrent
// use as long as each RunCell call's cfg.Cell tolerates the calling
// goroutine (Sweep's materialize-on-caller rule applies per call).
type CellRunner struct {
	pool *simPool
}

// NewCellRunner returns a runner with an empty simulator pool.
func NewCellRunner() *CellRunner {
	return &CellRunner{pool: newSimPool()}
}

// RunCell runs every trial of cell (si, xi) of the grid and returns the
// per-trial results in trial order — the unit of work a distributed
// worker executes. Trials fan out over workers goroutines (<= 0 selects
// GOMAXPROCS, 1 is serial); the results are identical for every worker
// count. The trial seeds, simulation code path, and result layout are
// shared with Sweep, so a cell computed here is byte-for-byte the cell a
// local sweep would have computed.
func (r *CellRunner) RunCell(ctx context.Context, cfg SweepConfig, si, xi, workers int) ([]Result, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return nil, err
	}
	if si < 0 || si >= len(cfg.SeriesNames) || xi < 0 || xi >= len(cfg.Xs) {
		return nil, fmt.Errorf("experiment: cell (%d, %d) outside %dx%d grid", si, xi, len(cfg.SeriesNames), len(cfg.Xs))
	}
	sc := CellScenario(cfg, si, xi)
	results := make([]Result, cfg.Trials)
	errs := make([]error, cfg.Trials)
	var failed atomic.Bool
	runTrialsInto(ctx, sc, results, errs, normalizeWorkers(workers), &failed, r.pool)
	if i, err := firstTrialError(errs); err != nil {
		return nil, fmt.Errorf("series %q x=%v: trial %d: %w", cfg.SeriesNames[si], cfg.Xs[xi], i, err)
	}
	return results, nil
}

// RunTrial runs exactly one trial of cell (si, xi) — the unit of work a
// trial-granularity distributed lease covers. The trial's seed, scenario
// materialization, and simulation code path are shared with RunCell (and
// therefore with Sweep), so the result is byte-for-byte the trial-th
// entry of the slice RunCell would return.
func (r *CellRunner) RunTrial(ctx context.Context, cfg SweepConfig, si, xi, trial int) (Result, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return Result{}, err
	}
	if si < 0 || si >= len(cfg.SeriesNames) || xi < 0 || xi >= len(cfg.Xs) {
		return Result{}, fmt.Errorf("experiment: cell (%d, %d) outside %dx%d grid", si, xi, len(cfg.SeriesNames), len(cfg.Xs))
	}
	if trial < 0 || trial >= cfg.Trials {
		return Result{}, fmt.Errorf("experiment: trial %d outside %d trials", trial, cfg.Trials)
	}
	sc := CellScenario(cfg, si, xi)
	sc.Seed = trialSeed(sc.Seed, trial)
	res, err := runScenario(ctx, sc, r.pool)
	if err != nil {
		return Result{}, fmt.Errorf("series %q x=%v: trial %d: %w", cfg.SeriesNames[si], cfg.Xs[xi], trial, err)
	}
	return res, nil
}

// AssembleFigure merges a completed grid's per-cell trial results into
// the figure, consuming them in (series, x, trial) order. perCell is
// indexed cell-major (si·len(Xs)+xi) and each entry must hold exactly
// Trials results in trial order. This is the same merge Sweep performs
// on its own results, so a distributed sweep that feeds verbatim trial
// results through here renders a byte-identical figure.
func AssembleFigure(cfg SweepConfig, perCell [][]Result) (Figure, error) {
	cfg, err := NormalizeSweep(cfg)
	if err != nil {
		return Figure{}, err
	}
	total := len(cfg.SeriesNames) * len(cfg.Xs)
	if len(perCell) != total {
		return Figure{}, fmt.Errorf("experiment: %d cell results for a %d-cell grid", len(perCell), total)
	}
	flat := make([]Result, 0, total*cfg.Trials)
	for c, cell := range perCell {
		if len(cell) != cfg.Trials {
			return Figure{}, fmt.Errorf("experiment: cell %d has %d trial results, want %d", c, len(cell), cfg.Trials)
		}
		flat = append(flat, cell...)
	}
	return assembleFigure(cfg, flat), nil
}
