package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"bgpsim/internal/churn"
	"bgpsim/internal/core"
	"bgpsim/internal/experiment"
)

// CoordinatorConfig tunes a Coordinator. The zero value works: 30s
// leases, no checkpoint, wall clock, silent log.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker holds a job before it may be
	// reassigned; it should comfortably exceed the slowest trial
	// (default 30s — paper-scale trials run in seconds).
	LeaseTTL time.Duration
	// CheckpointPath, when set, persists completed trial jobs after
	// every completion so an interrupted run resumes without redoing
	// them.
	CheckpointPath string
	// Clock overrides time.Now (fake clocks in tests).
	Clock func() time.Time
	// Log receives operational messages (lease reassignment, checkpoint
	// errors). nil discards.
	Log *log.Logger
}

// Coordinator owns the server half of the protocol: it turns sweeps and
// churn programs into trial-job tables, leases jobs to workers over
// HTTP, verifies and records completions, and merges results into
// figures or churn streams. One run is active at a time (the service
// layer serializes submissions); workers polling between runs are told
// to wait. All state is guarded by one mutex — request handlers do
// table lookups and JSON, never simulation work, so the lock is never
// held long.
type Coordinator struct {
	leaseTTL time.Duration
	ckptPath string
	now      func() time.Time
	log      *log.Logger

	// OnWindow, when set before any run starts, receives advisory
	// per-window reports streamed by churn workers via POST /v1/window.
	// It is invoked under the coordinator mutex, so it must be cheap
	// (the service layer copies into its own buffers). Reports are
	// best-effort: a worker crash between a window closing and the
	// trial completing re-streams that trial's windows on reassignment.
	OnWindow func(WindowReport)

	mu         sync.Mutex
	cur        *activeRun
	seq        int64
	shutdown   bool
	ckpt       *checkpointFile
	dispatched int64
}

// activeRun is the coordinator's state for one active run — either a
// sweep (desc/cfg set) or a churn program (cdesc set). Jobs are trials
// in both cases: a sweep's job ID is cell·Trials + trial, a churn run's
// job ID is the trial index.
type activeRun struct {
	id       int64
	key      string
	desc     SweepDesc              // sweep runs
	cfg      experiment.SweepConfig // sweep runs
	cdesc    *ChurnDesc             // churn runs
	table    *leaseTable
	total    int
	resumed  int
	err      error
	finished chan struct{} // closed once (all jobs done) or err is set
}

// NewCoordinator builds a coordinator, loading the checkpoint file if
// one is configured and present.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		leaseTTL: cfg.LeaseTTL,
		ckptPath: cfg.CheckpointPath,
		now:      cfg.Clock,
		log:      cfg.Log,
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.log == nil {
		c.log = log.New(io.Discard, "", 0)
	}
	ckpt := &checkpointFile{Schema: checkpointSchema, Sweeps: map[string]*sweepCheckpoint{}}
	if c.ckptPath != "" {
		var err error
		if ckpt, err = loadCheckpoint(c.ckptPath); err != nil {
			return nil, err
		}
	}
	c.ckpt = ckpt
	return c, nil
}

// install registers run as the active run, preloading checkpointed
// trial jobs via restore (which maps a doneJob to a payload, or returns
// false to drop the entry). Caller must not hold c.mu.
func (c *Coordinator) install(run *activeRun, done []doneJob, restore func(doneJob) (jobPayload, bool)) error {
	run.table = newLeaseTable(run.total, c.leaseTTL, c.now)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return fmt.Errorf("dist: coordinator is shut down")
	}
	if c.cur != nil {
		return fmt.Errorf("dist: a run is already active")
	}
	c.seq++
	run.id = c.seq
	// Resume: preload trial jobs this run already completed in a
	// previous coordinator life. Entries that don't fit (corrupt or
	// hand-edited checkpoint) are dropped rather than trusted.
	for _, d := range done {
		payload, ok := jobPayload{}, false
		if d.ID >= 0 && d.ID < run.total {
			payload, ok = restore(d)
		}
		if !ok {
			c.log.Printf("dist: checkpoint entry for job %d ignored", d.ID)
			continue
		}
		run.table.markDone(d.ID, payload)
	}
	run.resumed = run.table.done
	if run.resumed > 0 {
		c.log.Printf("dist: run %d: resumed %d/%d trial jobs from checkpoint", run.id, run.resumed, run.total)
	}
	c.cur = run
	if run.table.remaining() == 0 {
		close(run.finished)
	}
	return nil
}

// waitAndDetach blocks until the run finishes or ctx cancels, then
// clears the active-run slot and returns the run's error.
func (c *Coordinator) waitAndDetach(ctx context.Context, run *activeRun) error {
	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
		return ctx.Err()
	case <-run.finished:
	}
	c.mu.Lock()
	c.cur = nil
	err := run.err
	c.mu.Unlock()
	return err
}

// RunSweep executes cfg through remote workers: it publishes the grid
// as trial jobs, blocks until every trial's result is in (or ctx is
// canceled, or a worker reports a failure), and merges them into the
// figure in fixed (series, x, trial) order — byte-identical to a local
// Sweep of the same cfg. expID, sweepIndex, and wire address the grid
// for workers; cfg is the coordinator's own copy (its Cell closure is
// never invoked — trials are materialized worker-side).
func (c *Coordinator) RunSweep(ctx context.Context, expID string, sweepIndex int, wire Options, cfg experiment.SweepConfig) (experiment.Figure, error) {
	cfg, err := experiment.NormalizeSweep(cfg)
	if err != nil {
		return experiment.Figure{}, err
	}
	desc := SweepDesc{
		Protocol:   ProtocolVersion,
		Experiment: expID,
		SweepIndex: sweepIndex,
		Options:    wire,
		Grid:       Grid{Series: len(cfg.SeriesNames), Xs: len(cfg.Xs), Trials: cfg.Trials},
	}
	run := &activeRun{
		desc:     desc,
		key:      desc.Key(),
		cfg:      cfg,
		total:    desc.Grid.Series * desc.Grid.Xs * desc.Grid.Trials,
		finished: make(chan struct{}),
	}
	var done []doneJob
	if sc := c.ckpt.Sweeps[run.key]; sc != nil {
		done = sc.Done
	}
	if err := c.install(run, done, func(d doneJob) (jobPayload, bool) {
		if len(d.Results) != 1 || d.Trial != nil {
			return jobPayload{}, false
		}
		return jobPayload{results: d.Results}, true
	}); err != nil {
		return experiment.Figure{}, err
	}
	if run.resumed > 0 && cfg.Progress != nil {
		cfg.Progress(run.resumed, run.total)
	}
	if err := c.waitAndDetach(ctx, run); err != nil {
		return experiment.Figure{}, err
	}
	// Reassemble per-cell trial slices from the per-trial jobs: job IDs
	// are cell·Trials + trial, so walking jobs in ID order fills each
	// cell's trials in trial order.
	trials := cfg.Trials
	perCell := make([][]experiment.Result, desc.Grid.Series*desc.Grid.Xs)
	for i := range run.table.jobs {
		perCell[i/trials] = append(perCell[i/trials], run.table.jobs[i].payload.results...)
	}
	return experiment.AssembleFigure(cfg, perCell)
}

// RunChurn executes a churn program through remote workers: each trial
// is one job, completed trials carry the full window stream, and the
// assembled RunResult is byte-identical (Render) to a local churn.Run
// of the same scenario. Like sweeps, churn runs checkpoint-resume: a
// coordinator restart mid-program redoes only the unfinished trials.
func (c *Coordinator) RunChurn(ctx context.Context, desc ChurnDesc) (churn.RunResult, error) {
	if desc.Trials <= 0 {
		return churn.RunResult{}, fmt.Errorf("dist: churn run needs at least one trial")
	}
	if err := desc.Scenario.Program.Validate(); err != nil {
		return churn.RunResult{}, err
	}
	desc.Protocol = ProtocolVersion
	run := &activeRun{
		key:      desc.Key(),
		cdesc:    &desc,
		total:    desc.Trials,
		finished: make(chan struct{}),
	}
	var done []doneJob
	if cc := c.ckpt.Churn[run.key]; cc != nil {
		done = cc.Done
	}
	if err := c.install(run, done, func(d doneJob) (jobPayload, bool) {
		if d.Trial == nil || len(d.Results) != 0 || d.Trial.Trial != d.ID {
			return jobPayload{}, false
		}
		return jobPayload{trial: d.Trial}, true
	}); err != nil {
		return churn.RunResult{}, err
	}
	if err := c.waitAndDetach(ctx, run); err != nil {
		return churn.RunResult{}, err
	}
	rr := churn.RunResult{Scenario: desc.Scenario, Trials: make([]churn.TrialResult, run.total)}
	for i := range run.table.jobs {
		rr.Trials[i] = *run.table.jobs[i].payload.trial
	}
	return rr, nil
}

// SweeperFor adapts the coordinator into the experiment.Sweeper hook for
// one experiment run: install the result as Options.Sweeper and every
// grid the experiment builds is executed remotely. The returned function
// counts the experiment's Sweep calls to derive each grid's SweepIndex,
// so it must be used for exactly one Experiment.Run invocation.
func (c *Coordinator) SweeperFor(ctx context.Context, expID string, opts core.Options) experiment.Sweeper {
	wire := WireOptions(opts)
	index := 0
	return func(cfg experiment.SweepConfig) (experiment.Figure, error) {
		i := index
		index++
		return c.RunSweep(ctx, expID, i, wire, cfg)
	}
}

// Shutdown tells polling workers to exit: subsequent lease requests
// answer StatusShutdown and new runs are refused. It does not stop an
// active run; call it after the figure pipeline finishes.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.shutdown = true
	c.mu.Unlock()
}

// Stats snapshots coordinator state (the same data /v1/status serves).
func (c *Coordinator) Stats() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{Protocol: ProtocolVersion, Dispatched: c.dispatched}
	if c.cur != nil {
		st.Active = true
		st.SweepID = c.cur.id
		st.Total = c.cur.total
		st.Done = c.cur.table.done
		st.Resumed = c.cur.resumed
		st.Churn = c.cur.cdesc != nil
	}
	return st
}

// Handler returns the protocol's HTTP handler: POST /v1/lease, POST
// /v1/complete, POST /v1/window, GET /v1/status.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/window", c.handleWindow)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	return mux
}

// handleLease answers a worker's request for work.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	resp := LeaseResponse{Status: StatusWait}
	switch {
	case c.shutdown:
		resp.Status = StatusShutdown
	case c.cur == nil || c.cur.err != nil:
		// Idle, or a failing run draining: nothing to hand out.
	default:
		if jobID, lease, ok := c.cur.table.acquire(req.Worker); ok {
			c.dispatched++
			entry := &c.cur.table.jobs[jobID]
			if entry.attempts > 1 {
				c.log.Printf("dist: run %d: job %d reassigned to %s (attempt %d)", c.cur.id, jobID, req.Worker, entry.attempts)
			}
			resp = LeaseResponse{Status: StatusJob, SweepID: c.cur.id, Lease: lease}
			if c.cur.cdesc != nil {
				cd := *c.cur.cdesc
				resp.Churn = &cd
				resp.Job = Job{ID: jobID, Trial: jobID}
			} else {
				desc := c.cur.desc
				resp.Desc = &desc
				cell := jobID / desc.Grid.Trials
				resp.Job = Job{
					ID:     jobID,
					Series: cell / desc.Grid.Xs,
					X:      cell % desc.Grid.Xs,
					Trial:  jobID % desc.Grid.Trials,
				}
			}
		}
	}
	c.mu.Unlock()
	reply(w, resp)
}

// handleComplete records a worker's finished (or failed) job.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	run := c.cur
	if run == nil || req.SweepID != run.id {
		// A straggler finishing a job of a run that already ended: its
		// results merged from another worker (or the run was
		// abandoned). Acknowledge and drop.
		c.mu.Unlock()
		reply(w, CompleteResponse{Status: StatusDuplicate})
		return
	}
	if req.Error != "" {
		c.failLocked(run, fmt.Errorf("dist: worker %s: job %d: %s", req.Worker, req.JobID, req.Error))
		c.mu.Unlock()
		reply(w, CompleteResponse{Status: StatusOK})
		return
	}
	var payload jobPayload
	if run.cdesc != nil {
		if req.TrialResult == nil || len(req.Results) != 0 {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("dist: churn job %d: completion must carry exactly a trial result", req.JobID), http.StatusConflict)
			return
		}
		payload = jobPayload{trial: req.TrialResult}
	} else {
		if len(req.Results) != 1 || req.TrialResult != nil {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("dist: job %d: %d trial results, want exactly 1", req.JobID, len(req.Results)), http.StatusConflict)
			return
		}
		payload = jobPayload{results: req.Results}
	}
	outcome, err := run.table.complete(req.JobID, req.Lease, payload)
	if err != nil {
		// Divergent duplicate results poison the merge: fail the run
		// loudly rather than emit a figure of unknowable provenance.
		c.failLocked(run, err)
		c.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	status := StatusDuplicate
	if outcome == completedNew {
		status = StatusOK
		if run.cdesc == nil && run.cfg.Progress != nil {
			// The Progress contract (serialized, strictly monotonic)
			// holds whatever order worker reports arrive in: calls are
			// made under c.mu, and table.done increments exactly once
			// per newly completed trial job.
			run.cfg.Progress(run.table.done, run.total)
		}
		if c.ckptPath != "" {
			if run.cdesc != nil {
				c.ckpt.recordChurn(run.key, *run.cdesc, req.JobID, req.TrialResult)
			} else {
				c.ckpt.record(run.key, run.desc, req.JobID, req.Results)
			}
			if err := c.ckpt.save(c.ckptPath); err != nil {
				c.log.Printf("dist: %v (continuing without checkpoint)", err)
			}
		}
		if run.table.remaining() == 0 {
			close(run.finished)
		}
	}
	c.mu.Unlock()
	reply(w, CompleteResponse{Status: status})
}

// handleWindow receives an advisory streamed window report from a churn
// worker and forwards it to the OnWindow hook. Reports for a run that
// is no longer active are acknowledged and dropped.
func (c *Coordinator) handleWindow(w http.ResponseWriter, r *http.Request) {
	var rep WindowReport
	if !decode(w, r, &rep) {
		return
	}
	c.mu.Lock()
	if c.cur != nil && c.cur.id == rep.SweepID && c.OnWindow != nil {
		c.OnWindow(rep)
	}
	c.mu.Unlock()
	reply(w, CompleteResponse{Status: StatusOK})
}

// failLocked marks the run failed and wakes the waiter. Caller holds c.mu.
func (c *Coordinator) failLocked(run *activeRun, err error) {
	if run.err == nil {
		run.err = err
		close(run.finished)
	}
}

// handleStatus serves the coordinator snapshot.
func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	reply(w, c.Stats())
}

// maxBodyBytes bounds every request body the coordinator and service
// decode. The largest body the package tests and the churn service
// benchmark send is a churn completion of 4,768 bytes; a churn trial at
// the program cap (10,000 arrivals, two windows each at ~200 bytes)
// completes in about 4 MB. 16 MiB leaves headroom above both while
// keeping a buggy or hostile client from making the coordinator buffer
// an unbounded body.
const maxBodyBytes = 16 << 20

// decode parses a JSON request body, replying 413 when it exceeds
// maxBodyBytes and 400 on any other failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "dist: bad request: "+err.Error(), code)
		return false
	}
	return true
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already committed; nothing useful to do.
		_ = err
	}
}
