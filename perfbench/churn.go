package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpsim"
	"bgpsim/internal/churn"
	"bgpsim/internal/dist"
	"bgpsim/internal/stats"
)

// churnSubmitRef is the run-length budget per churn submission, submit
// to result (README.md), which sizes a run: fifty submissions at the
// default --seconds.
const churnSubmitRef = 0.56

// churnSlots is the number of committed churn scenario seeds.
const churnSlots = 256

// churnTrials is the trial count of every submission.
const churnTrials = 2

// clientPoll is how often the client queries a running submission. It
// is far below the worker's 200 ms poll so the client's own timer adds
// little to the latency it measures.
const clientPoll = 10 * time.Millisecond

// churnScenario is the program submitted in slot: a Poisson link-flap
// program on a 120-node 70-30 topology (30 nodes when tiny) at MRAI 0.5 s.
func churnScenario(tiny bool, slot int) churn.Scenario {
	n := 120
	if tiny {
		n = 30
	}
	return churn.Scenario{
		Topology: bgpsim.Skewed7030(n),
		Scheme:   "mrai=0.5",
		Program: churn.Spec{
			Kind:     churn.PoissonLinkFlap,
			Rate:     0.1,
			Duration: time.Minute,
			HoldMin:  4 * time.Second,
			HoldMax:  12 * time.Second,
		},
		// Spaced by two: trial t of seed s runs seed s+t, so adjacent
		// slots would otherwise share a trial.
		Seed: 1 + 2*int64(slot),
	}
}

// churnDigestName names the committed digest table for the scale.
func churnDigestName(tiny bool) string {
	if tiny {
		return "churn-tiny"
	}
	return "churn"
}

// probe instruments the service stack. Its handler wrapper always
// signals the worker's first lease; while traced is set it also records
// spans, counts and times every endpoint, and times every churn trial.
type probe struct {
	traced     atomic.Bool
	sp         *spanRecorder
	op         atomic.Int64 // span id of the running submission, -1 between
	firstLease chan struct{}
	once       sync.Once

	mu       sync.Mutex
	requests map[string]int
	handler  map[string][]float64 // ms
	idle     int
	trials   []trialSpan // of the running submission
	trialS   []float64
	windows  []int
}

// trialSpan is one churn trial's execution interval on the worker.
type trialSpan struct{ start, end time.Time }

func newProbe() *probe {
	p := &probe{firstLease: make(chan struct{}), requests: map[string]int{}, handler: map[string][]float64{}}
	p.op.Store(-1)
	return p
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

func (p *probe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := strings.TrimPrefix(r.URL.Path, "/v1/")
		if ep == "lease" {
			p.once.Do(func() { close(p.firstLease) })
		}
		if !p.traced.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &captureWriter{ResponseWriter: w}
		id, t := p.sp.begin("dist."+ep, int(p.op.Load())), time.Now()
		h.ServeHTTP(cw, r)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		p.sp.end(id)
		var lease dist.LeaseResponse
		idle := ep == "lease" && json.Unmarshal(cw.body.Bytes(), &lease) == nil && lease.Status == dist.StatusWait
		p.mu.Lock()
		p.requests[ep]++
		p.handler[ep] = append(p.handler[ep], ms)
		if idle {
			p.idle++
		}
		p.mu.Unlock()
	})
}

// churnRun wraps the worker's churn executor.
func (p *probe) churnRun(inner dist.ChurnJobRunner) dist.ChurnJobRunner {
	return func(ctx context.Context, desc dist.ChurnDesc, job dist.Job, obs churn.WindowObserver) (*churn.TrialResult, error) {
		if !p.traced.Load() {
			return inner(ctx, desc, job, obs)
		}
		id, start := p.sp.begin("churn.trial", int(p.op.Load())), time.Now()
		tr, err := inner(ctx, desc, job, obs)
		end := time.Now()
		p.sp.end(id)
		p.mu.Lock()
		p.trials = append(p.trials, trialSpan{start, end})
		p.trialS = append(p.trialS, end.Sub(start).Seconds())
		if tr != nil {
			p.windows = append(p.windows, len(tr.Windows))
		}
		p.mu.Unlock()
		return tr, err
	}
}

// service is one in-process coordinator, service, loopback listener and
// worker, plus the closed-loop client that talks to them.
type service struct {
	probe  *probe
	srv    *httptest.Server
	coord  *dist.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client
}

// startService brings the stack up and waits for the worker's first
// lease request.
func startService() (*service, error) {
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{})
	if err != nil {
		return nil, err
	}
	svc := dist.NewService(coord, nil)
	p := newProbe()
	s := &service{probe: p, coord: coord, srv: httptest.NewServer(p.wrap(svc.Handler()))}
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	worker := &dist.Worker{
		Base:     s.srv.URL,
		ID:       "perfbench",
		Client:   &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
		ChurnRun: p.churnRun(dist.ChurnRunner(1)),
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = svc.Run(ctx) // returns the cancellation error at close
	}()
	go func() {
		defer s.wg.Done()
		_ = worker.Work(ctx) // returns at shutdown or cancellation
	}()
	select {
	case <-p.firstLease:
		return s, nil
	case <-time.After(30 * time.Second):
		s.close()
		return nil, fmt.Errorf("worker never polled the coordinator")
	}
}

// close stops the worker and the drain loop, waits for both, and shuts
// the listener.
func (s *service) close() {
	s.coord.Shutdown()
	s.cancel()
	s.wg.Wait()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// call does one JSON exchange with the service.
func (s *service) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.srv.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// submission is one measured submit-to-result round trip.
type submission struct {
	result          string
	submitted, done time.Time
	use             usage
}

// submit sends a churn program and polls until the service reports it
// done, the way the bgpsim -submit client does.
func (s *service) submit(sc churn.Scenario) (submission, error) {
	var sub submission
	m := startMeter()
	sub.submitted = time.Now()
	var ack dist.SubmitResponse
	if err := s.call(http.MethodPost, "/v1/submit", dist.SubmitRequest{Churn: &dist.ChurnDesc{Scenario: sc, Trials: churnTrials}}, &ack); err != nil {
		return sub, err
	}
	query := "/v1/query?id=" + strconv.Itoa(ack.ID)
	for {
		time.Sleep(clientPoll)
		var info dist.SubmissionInfo
		if err := s.call(http.MethodGet, query, nil, &info); err != nil {
			return sub, err
		}
		switch info.State {
		case dist.SubmissionDone:
			sub.done = time.Now()
			sub.use = m.stop()
			sub.result = info.Result
			return sub, nil
		case dist.SubmissionFailed:
			return sub, fmt.Errorf("submission %d failed: %s", ack.ID, info.Error)
		}
	}
}

// setupChurn starts the service stack and runs one warm-up submission
// through it, setupReps times, keeping the last stack; setup_s is the
// median.
func setupChurn(cfg config, o *outcome) (*service, map[int]string, error) {
	var s *service
	var reps []usage
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
		}
		id, m := o.spans.begin("setup", -1), startMeter()
		var err error
		if s, err = startService(); err != nil {
			return nil, nil, err
		}
		if _, err := s.submit(churnScenario(cfg.tiny, churnSlots-1-rep)); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, m.stop())
		o.spans.end(id)
	}
	setSetup(o, reps)
	want, err := loadDigests(cfg.root, churnDigestName(cfg.tiny))
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, want, nil
}

// churnPass runs n submissions in a closed loop, checking each result
// stream against its committed digest.
func churnPass(cfg config, o *outcome, s *service, n, count int, want map[int]string, label string) ([]submission, error) {
	var out []submission
	for i := 0; i < count; i++ {
		slot := seedIndex(cfg.seed, n, i, churnSlots)
		sub, err := s.submit(churnScenario(cfg.tiny, slot))
		if err != nil {
			return nil, err
		}
		o.check(fmt.Sprintf("%s submission %d (slot %d)", label, i, slot), checkDigest("churn stream", sub.result, want, slot))
		out = append(out, sub)
	}
	return out, nil
}

// windowsIn counts the measurement windows of a rendered churn stream.
func windowsIn(stream string) int { return strings.Count(stream, "\n  win ") }

func runChurn(cfg config, o *outcome) error {
	s, want, err := setupChurn(cfg, o)
	if err != nil {
		return err
	}
	defer s.close()
	n := cfg.ops(churnSubmitRef, 11)
	if cfg.tiny {
		n = 11
	}
	if !cfg.trace {
		subs, err := churnPass(cfg, o, s, n, n, want, "timed")
		if err != nil {
			return err
		}
		var ops []usage
		windows := 0
		for _, sub := range subs {
			ops = append(ops, sub.use)
			windows += windowsIn(sub.result)
		}
		lat := setEndToEnd(o, ops, n*churnTrials, windows)
		o.note("submit_to_result_s.p50 = %.4f s over %d submissions (reference-host seconds)", o.metrics["op_s.p50"], n)
		if pct, v, ok := tailPercentile(lat); ok {
			o.note("submit_to_result_s.p%d = %.4f s (n=%d, %d beyond)", pct, v, n, n-(pct*n+99)/100)
		}
		o.note("windows_per_s = %.3f 1/s (%d windows)", o.metrics["windows_per_s"], windows)
		return nil
	}

	// Traced run: the first k submissions untraced, then again traced.
	k := max(11, n/2)
	plain, err := churnPass(cfg, o, s, n, k, want, "untraced")
	if err != nil {
		return err
	}
	p := s.probe
	p.sp = o.spans
	p.traced.Store(true)
	var traced []submission
	var wait, finish []float64
	var pu, tu usage
	for i := 0; i < k; i++ {
		slot := seedIndex(cfg.seed, n, i, churnSlots)
		p.mu.Lock()
		p.trials = nil
		p.mu.Unlock()
		op := o.spans.begin("op", -1)
		p.op.Store(int64(op))
		sub, err := s.submit(churnScenario(cfg.tiny, slot))
		p.op.Store(-1)
		o.spans.end(op)
		if err != nil {
			return err
		}
		problems := checkDigest("churn stream", sub.result, want, slot)
		if sub.result != plain[i].result {
			problems = append(problems, "traced stream differs from the untraced run of the same program")
		}
		o.check(fmt.Sprintf("traced submission %d (slot %d)", i, slot), problems)
		p.mu.Lock()
		if len(p.trials) > 0 {
			wait = append(wait, p.trials[0].start.Sub(sub.submitted).Seconds())
			finish = append(finish, sub.done.Sub(p.trials[len(p.trials)-1].end).Seconds())
		}
		p.mu.Unlock()
		traced = append(traced, sub)
		pu.add(plain[i].use)
		tu.add(sub.use)
	}
	p.traced.Store(false)

	p.mu.Lock()
	defer p.mu.Unlock()
	perSub := func(v int) float64 { return float64(v) / float64(k) }
	for _, ep := range endpoints {
		o.set("dist."+ep+".requests", perSub(p.requests[ep]))
		o.set("dist."+ep+".handler_ms.p50", stats.Median(p.handler[ep]))
	}
	o.set("dist.lease.idle_replies", perSub(p.idle))
	o.set("dist.queue_wait_s.p50", stats.Median(wait))
	o.set("dist.finish_s.p50", stats.Median(finish))
	o.set("churn.trial_s.p50", stats.Median(p.trialS))
	windows := 0
	for _, w := range p.windows {
		windows += w
	}
	o.set("churn.windows_per_trial", float64(windows)/float64(max(1, len(p.windows))))
	setGoStats(o, pu, k*churnTrials)
	o.set("trace.overhead_s", (tu.cpu-pu.cpu).Seconds()/float64(k))
	setSpanSelfTimes(o, k)
	lat := make([]float64, len(traced))
	for i, sub := range traced {
		lat[i] = sub.use.wall.Seconds()
	}
	o.note("traced submit_to_result_s.p50 = %.4f s; queue wait p50 %.4f s; trial p50 %.4f s x %d; finish p50 %.4f s",
		stats.Median(lat), stats.Median(wait), stats.Median(p.trialS), churnTrials, stats.Median(finish))
	return nil
}
