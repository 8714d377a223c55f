// Package dist distributes simulation work across machines: a
// coordinator decomposes runs into trial-granularity jobs (one job per
// trial of one (series, x) cell, or one churn trial) and serves them
// over an HTTP/JSON protocol; workers pull jobs, run them through the
// ordinary experiment/churn machinery, and push back results. A service
// layer (service.go) promotes the coordinator to a long-running server
// accepting figure and churn submissions from many concurrent clients.
//
// # Why remote execution can be byte-identical
//
// Scenarios carry closures (schemes mutate bgp.Params arbitrarily), so
// sweep jobs never ship scenarios. A job is an address into the shared
// experiment registry instead: (experiment ID, scale options, sweep
// index, series index, x index, trial). Both sides run the same registry
// code over the same options, and the seed of every trial derives from
// grid indices alone (experiment.CellScenario + the trial stride), so
// the worker materializes bit-for-bit the scenario the coordinator's
// local sweep would have run. The coordinator merges returned trial
// results in fixed (series, x, trial) order through the same assembly
// code Sweep uses — the emitted figure is byte-identical to a local run
// by construction. Churn jobs carry a fully wire-encodable scenario
// (topology spec, scheme named in ParseScheme syntax, program spec), so
// the same argument applies: trial seeds derive from (scenario seed,
// trial index) and the metric stream assembles in trial order.
//
// # Robustness
//
// Jobs are leased, not handed out: a lease expires if the worker dies
// mid-job and the job is reassigned (lease.go). Result submission is
// idempotent — duplicate completions for a job are verified identical
// against the recorded results, never double-counted; a mismatch is a
// determinism violation and fails the run loudly. Workers retry
// transient HTTP errors with exponential backoff and jitter
// (backoff.go). The coordinator checkpoints completed trials to a file
// after every completion, so an interrupted run resumes without redoing
// finished work (checkpoint.go) — including churn programs interrupted
// mid-stream.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bgpsim/internal/churn"
	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// ProtocolVersion names the wire protocol. It is embedded in every run
// descriptor and checked by workers; bump it whenever job addressing,
// seed derivation, or result encoding changes meaning. v2 moved job
// granularity from cells (all trials batched) to single trials and
// added churn runs.
const ProtocolVersion = "bgpsim/dist/v2"

// Lease response statuses.
const (
	// StatusJob means the response carries a leased job.
	StatusJob = "job"
	// StatusWait means no job is available right now; poll again.
	StatusWait = "wait"
	// StatusShutdown means the coordinator is exiting; the worker
	// should too.
	StatusShutdown = "shutdown"
	// StatusOK acknowledges a completion.
	StatusOK = "ok"
	// StatusDuplicate acknowledges a completion for an already-complete
	// job whose results matched the recorded ones.
	StatusDuplicate = "duplicate"
)

// Options is the wire form of core.Options: the scalar scale knobs and
// nothing else. Worker-local execution knobs (Workers) and process-local
// callbacks (Progress, Sweeper, Context) deliberately do not cross the
// wire — they cannot change results, only wall-clock time.
type Options struct {
	// Nodes is the AS count (see core.Options.Nodes).
	Nodes int `json:"nodes"`
	// Trials is the replication count per data point.
	Trials int `json:"trials"`
	// Seed is the base seed every cell derives from.
	Seed int64 `json:"seed"`
	// FailureSizes is the failure-size axis in percent of routers.
	FailureSizes []float64 `json:"failure_sizes"`
	// MRAIs is the MRAI axis in seconds.
	MRAIs []float64 `json:"mrais"`
	// RealisticMaxASSize caps routers per AS for Fig 13 topologies.
	RealisticMaxASSize int `json:"realistic_max_as_size"`
	// PrefixesPerOrigin is the prefix dimension (0 = single prefix).
	// omitempty keeps the wire form of single-prefix runs identical to
	// coordinators that predate the field.
	PrefixesPerOrigin int `json:"prefixes_per_origin,omitempty"`
	// WarmStart selects snapshot-seeded trials (0 events before the
	// failure window). It crosses the wire so every worker runs the cell
	// the same way — results are byte-identical either way, but the
	// duplicate-completion cross-check compares wall-clock-independent
	// bytes only when both sides agree on the execution mode. omitempty
	// keeps cold-start wire forms identical to coordinators that predate
	// the field.
	WarmStart bool `json:"warm_start,omitempty"`
}

// WireOptions extracts the wire form of o. The coordinator sends the
// pre-normalization options exactly as the figure pipeline received
// them; both sides then normalize identically inside Experiment.Run.
func WireOptions(o core.Options) Options {
	return Options{
		Nodes:              o.Nodes,
		Trials:             o.Trials,
		Seed:               o.Seed,
		FailureSizes:       o.FailureSizes,
		MRAIs:              o.MRAIs,
		RealisticMaxASSize: o.RealisticMaxASSize,
		PrefixesPerOrigin:  o.PrefixesPerOrigin,
		WarmStart:          o.WarmStart,
	}
}

// Core converts back to core.Options (local-only fields zero).
func (o Options) Core() core.Options {
	return core.Options{
		Nodes:              o.Nodes,
		Trials:             o.Trials,
		Seed:               o.Seed,
		FailureSizes:       o.FailureSizes,
		MRAIs:              o.MRAIs,
		RealisticMaxASSize: o.RealisticMaxASSize,
		PrefixesPerOrigin:  o.PrefixesPerOrigin,
		WarmStart:          o.WarmStart,
	}
}

// Grid is the shape of a sweep grid: the worker recomputes the grid from
// the descriptor and refuses jobs whose shape disagrees (version skew
// between coordinator and worker binaries would otherwise silently remap
// cells).
type Grid struct {
	// Series is the number of series (curves).
	Series int `json:"series"`
	// Xs is the number of sweep points per series.
	Xs int `json:"xs"`
	// Trials is the replication count per cell.
	Trials int `json:"trials"`
}

// SweepDesc addresses one sweep grid inside the experiment registry; it
// is everything a worker needs to reconstruct the grid's cells.
type SweepDesc struct {
	// Protocol is ProtocolVersion.
	Protocol string `json:"protocol"`
	// Experiment is the registry ID ("fig3", "ablation-policy", ...).
	Experiment string `json:"experiment"`
	// SweepIndex selects the n-th Sweep call Experiment.Run makes
	// (0-based; every current experiment makes exactly one).
	SweepIndex int `json:"sweep_index"`
	// Options is the scale the experiment runs at.
	Options Options `json:"options"`
	// Grid is the resulting grid shape, for worker-side validation.
	Grid Grid `json:"grid"`
}

// Key fingerprints the descriptor for checkpoint addressing: two sweeps
// share a key iff a completed cell of one is a valid completed cell of
// the other.
func (d SweepDesc) Key() string {
	b, err := json.Marshal(d)
	if err != nil {
		// Marshal of this plain struct cannot fail.
		panic(fmt.Sprintf("dist: marshal SweepDesc: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Job is one leased unit of work: a single trial. For sweep runs it is
// trial Trial of cell (Series, X); for churn runs Series and X are zero
// and Trial is the churn trial index.
type Job struct {
	// ID is the trial-granularity job index: (si*Grid.Xs + xi)*Grid.Trials
	// + trial for sweeps, the trial index for churn runs.
	ID int `json:"id"`
	// Series is the series index si.
	Series int `json:"series"`
	// X is the x index xi (an index into the axis, not the value).
	X int `json:"x"`
	// Trial is the trial index within the cell (or churn run).
	Trial int `json:"trial"`
}

// ChurnDesc addresses one distributed churn run: unlike sweep jobs,
// churn scenarios are fully wire-encodable (topology spec, scheme named
// in the ParseScheme syntax, program spec), so the descriptor carries
// the scenario itself rather than a registry address.
type ChurnDesc struct {
	// Protocol is ProtocolVersion.
	Protocol string `json:"protocol"`
	// Scenario is the churn scenario every trial derives from.
	Scenario churn.Scenario `json:"scenario"`
	// Trials is the replication count; job IDs are trial indices.
	Trials int `json:"trials"`
}

// Key fingerprints the descriptor for checkpoint addressing, exactly as
// SweepDesc.Key does for sweeps.
func (d ChurnDesc) Key() string {
	b, err := json.Marshal(d)
	if err != nil {
		// Marshal of this plain struct cannot fail.
		panic(fmt.Sprintf("dist: marshal ChurnDesc: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// LeaseRequest asks the coordinator for a job.
type LeaseRequest struct {
	// Worker identifies the requester (diagnostics and lease records).
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	// Status is StatusJob, StatusWait, or StatusShutdown.
	Status string `json:"status"`
	// SweepID identifies the active run; completions must echo it.
	SweepID int64 `json:"sweep_id,omitempty"`
	// Desc describes the sweep the job belongs to (set with StatusJob
	// for sweep jobs).
	Desc *SweepDesc `json:"desc,omitempty"`
	// Churn describes the churn run the job belongs to (set with
	// StatusJob for churn jobs; exactly one of Desc/Churn is set).
	Churn *ChurnDesc `json:"churn,omitempty"`
	// Job is the leased trial (set with StatusJob).
	Job Job `json:"job,omitempty"`
	// Lease is the lease token; completions must echo it.
	Lease int64 `json:"lease,omitempty"`
}

// CompleteRequest submits a finished job's results (or its failure).
type CompleteRequest struct {
	// Worker identifies the submitter.
	Worker string `json:"worker"`
	// SweepID and JobID identify the job; Lease is its lease token.
	SweepID int64 `json:"sweep_id"`
	JobID   int   `json:"job_id"`
	Lease   int64 `json:"lease"`
	// Results holds the sweep trial's result (exactly one entry — job
	// granularity is a single trial since protocol v2). Result fields
	// are integers (durations in nanoseconds), so the JSON round trip is
	// exact and coordinator-side aggregation is bit-equal to local.
	Results []experiment.Result `json:"results,omitempty"`
	// TrialResult holds a churn trial's full window stream (set instead
	// of Results for churn jobs).
	TrialResult *churn.TrialResult `json:"trial_result,omitempty"`
	// Error reports a deterministic job failure (bad experiment,
	// simulation error): the coordinator fails the whole run, matching
	// local Sweep's first-error semantics.
	Error string `json:"error,omitempty"`
}

// WindowReport streams one closed churn measurement window to the
// coordinator while its trial is still running — the incremental metric
// feed behind the /v1/query live view. Reports are advisory: the
// authoritative stream is the completion's TrialResult, so a lost or
// re-sent report can skew the live view but never the final result.
type WindowReport struct {
	// Worker identifies the reporter.
	Worker string `json:"worker"`
	// SweepID and JobID identify the running churn job.
	SweepID int64 `json:"sweep_id"`
	JobID   int   `json:"job_id"`
	// Trial is the churn trial index.
	Trial int `json:"trial"`
	// Window is the closed window's metrics.
	Window churn.WindowResult `json:"window"`
	// PerNodeSent is the window's per-router send count — the live
	// per-router convergence state.
	PerNodeSent []int `json:"per_node_sent,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Status is StatusOK or StatusDuplicate.
	Status string `json:"status"`
}

// StatusResponse reports coordinator state (monitoring and tests).
type StatusResponse struct {
	// Protocol is ProtocolVersion.
	Protocol string `json:"protocol"`
	// Active reports whether a run is in progress.
	Active bool `json:"active"`
	// SweepID identifies the active run (0 when idle).
	SweepID int64 `json:"sweep_id,omitempty"`
	// Total and Done count the active run's trial jobs.
	Total int `json:"total,omitempty"`
	Done  int `json:"done,omitempty"`
	// Churn reports whether the active run is a churn program (false:
	// a sweep).
	Churn bool `json:"churn,omitempty"`
	// Dispatched counts leases handed out since the coordinator
	// started, reassignments included.
	Dispatched int64 `json:"dispatched"`
	// Resumed counts trials preloaded from the checkpoint for the
	// active run — work the coordinator did not redo.
	Resumed int `json:"resumed,omitempty"`
}
