// Package core packages the paper's contribution: the named schemes
// (constant / degree-dependent / dynamic MRAI, batched update processing)
// and a registry of experiment definitions that regenerate every figure
// in the paper's evaluation (Figs 1–13) plus ablation experiments for the
// design choices DESIGN.md calls out.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bgpsim/internal/experiment"
	"bgpsim/internal/topology"
)

// Options scales an experiment. The zero value is not valid; start from
// DefaultOptions (paper scale) or QuickOptions (CI scale).
type Options struct {
	// Nodes is the AS count for the skewed topologies (paper: 120) and
	// the AS count for Fig 13's realistic topologies.
	Nodes int
	// Trials is the replication count per data point.
	Trials int
	// Seed is the base seed; every cell derives from it.
	Seed int64
	// FailureSizes is the failure-size axis in percent of routers.
	FailureSizes []float64
	// MRAIs is the MRAI axis in seconds for the V-curve figures.
	MRAIs []float64
	// RealisticMaxASSize caps routers per AS for Fig 13 (paper: 100;
	// smaller values keep IBGP meshes manageable).
	RealisticMaxASSize int
	// PrefixesPerOrigin is the number of destination prefixes each AS
	// originates (0 = the paper's single prefix). Values above 1 scale
	// every figure's routing-table dimension; the value 1 is explicit
	// single-prefix and must regenerate the recorded figures
	// byte-identically (the prefix-ablation CI job pins this).
	PrefixesPerOrigin int
	// Workers bounds the worker pool each sweep fans its
	// (series × x × trial) grid over: <= 0 selects GOMAXPROCS, 1 is
	// fully serial. Figures are byte-identical for every worker count.
	Workers int
	// WarmStart replaces each trial's event-driven initial-convergence
	// phase with the snapshot backend's fixpoint
	// (experiment.Scenario.WarmStart): trials begin at failure injection.
	// Window normalization keeps every figure byte-identical to the cold
	// run's, so it is safe for golden comparisons and exists purely to
	// cut wall clock.
	WarmStart bool
	// Progress, when set, receives per-cell completion callbacks. Calls
	// are serialized with strictly increasing done counts (see
	// experiment.SweepConfig.Progress).
	Progress func(done, total int)
	// Context, when non-nil, cancels in-flight sweeps: unstarted trials
	// are skipped, running simulations abort at the engine's next
	// cancellation probe, and the experiment returns the context error.
	// nil behaves as context.Background.
	Context context.Context
	// Sweeper, when non-nil, replaces the local sweep executor: every
	// grid an experiment builds is handed to it instead of
	// experiment.Sweep. This is the hook distributed execution
	// (internal/dist) plugs a coordinator into; figures must come back
	// byte-identical to the local executor's.
	Sweeper experiment.Sweeper
}

// DefaultOptions reproduces the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Nodes:              120,
		Trials:             3,
		Seed:               1,
		FailureSizes:       append([]float64(nil), experiment.FailureSizesPct...),
		MRAIs:              append([]float64(nil), experiment.MRAISweepSeconds...),
		RealisticMaxASSize: 100,
	}
}

// QuickOptions is a reduced configuration for tests and benchmarks:
// half-size networks, single trial, coarser axes. The trends survive;
// only the variance suffers.
func QuickOptions() Options {
	return Options{
		Nodes:              60,
		Trials:             1,
		Seed:               1,
		FailureSizes:       []float64{2.5, 10, 20},
		MRAIs:              []float64{0.25, 0.75, 1.5, 3.0},
		RealisticMaxASSize: 6,
	}
}

// normalize fills zero fields from defaults.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.Nodes == 0 {
		o.Nodes = def.Nodes
	}
	if o.Trials == 0 {
		o.Trials = def.Trials
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if len(o.FailureSizes) == 0 {
		o.FailureSizes = def.FailureSizes
	}
	if len(o.MRAIs) == 0 {
		o.MRAIs = def.MRAIs
	}
	if o.RealisticMaxASSize == 0 {
		o.RealisticMaxASSize = def.RealisticMaxASSize
	}
	return o
}

// ctx resolves the cancellation context (nil = background).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// sweep executes one grid through the configured executor: the Sweeper
// override when set (distributed execution), the local context-aware
// parallel sweep otherwise. Every experiment in this package routes its
// grids through here, which is what lets a coordinator intercept the
// whole figure pipeline without the figure definitions knowing.
func (o Options) sweep(cfg experiment.SweepConfig) (experiment.Figure, error) {
	cfg.WarmStart = o.WarmStart
	if o.Sweeper != nil {
		return o.Sweeper(cfg)
	}
	return experiment.SweepContext(o.ctx(), cfg)
}

// skewedTopo returns the default 70-30 topology spec at the option scale.
func (o Options) skewedTopo(kind topology.Kind) topology.Spec {
	return topology.Spec{Kind: kind, N: o.Nodes, PrefixesPerOrigin: o.prefixes()}
}

// realisticTopo returns the Fig 13 topology spec at the option scale.
func (o Options) realisticTopo() topology.Spec {
	return topology.Spec{
		Kind: topology.KindRealistic, N: o.Nodes,
		MaxASSize: o.RealisticMaxASSize, PrefixesPerOrigin: o.prefixes(),
	}
}

// prefixes resolves the prefix dimension, normalizing the explicit
// single-prefix request (1) to the zero default so the spec — and with
// it the topology-memo key and every recorded figure — is bit-for-bit
// the same as a run that never mentioned prefixes.
func (o Options) prefixes() int {
	if o.PrefixesPerOrigin <= 1 {
		return 0
	}
	return o.PrefixesPerOrigin
}

// Experiment is a runnable reproduction of one paper figure (or one
// ablation study).
type Experiment struct {
	// ID is "fig1".."fig13" for paper figures, "ablation-*" for extras.
	ID string
	// Title describes what the paper plots.
	Title string
	// What summarizes the expected qualitative outcome.
	What string
	// Run executes the experiment at the given scale.
	Run func(Options) (experiment.Figure, error)
}

// Registry returns every experiment, paper figures first in numeric
// order, then ablations alphabetically.
func Registry() []Experiment {
	exps := []Experiment{
		fig1(), fig2(), fig3(), fig4(), fig5(), fig6(), fig7(),
		fig8(), fig9(), fig10(), fig11(), fig12(), fig13(),
	}
	abl := Ablations()
	sort.Slice(abl, func(i, j int) bool { return abl[i].ID < abl[j].ID })
	return append(exps, abl...)
}

// Lookup finds an experiment by ID ("fig7", "7", "ablation-batch-discard").
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id || e.ID == "fig"+id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// PaperMRAIs are the three constant MRAI values the paper compares
// throughout (Figs 1, 2, 6, 7, 10, 11).
var PaperMRAIs = []time.Duration{
	500 * time.Millisecond,
	1250 * time.Millisecond,
	2250 * time.Millisecond,
}
