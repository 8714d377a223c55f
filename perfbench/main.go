// Command perfbench is the repository's end-to-end benchmark. It times
// the three things users of bgpsim do — run large-scale failure trials,
// regenerate a paper figure, and stream churn programs through the
// long-running service — by driving the layers through their public
// functions, checks every output, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// instrumentation beyond a clock around each operation. With --trace 1
// the run repeats part of the work untraced and then traced (spans
// around every layer call, a counting bgp event tracer, counting HTTP
// handler wrappers) and prints the per-layer set. See README.md for the
// workloads, the metric table and the A/B protocol.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload storm500 --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgpsim/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed by every --trace 0 run, for every workload. Each
// metric means the same thing on every workload; "operation" is the
// workload's unit of user-visible work (a failure trial, a figure, a
// service submission).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_s.p50", "s"},
	{"allocs_per_trial", "count"},
	{"windows_per_s", "1/s"},
}

// perLayer is printed by every --trace 1 run. A metric of a layer the
// workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"topology.build_s", "s"},
		{"snapshot.compute_s", "s"},
		{"snapshot.rounds", "count"},
		{"bgp.new_s", "s"},
		{"bgp.reset_s", "s"},
		{"bgp.warmstart_s", "s"},
		{"bgp.storm_s", "s"},
		{"bgp.storm_ns_per_update", "ns"},
		{"bgp.updates_processed", "count"},
		{"bgp.updates_discarded", "count"},
		{"bgp.discard_ratio", "ratio"},
		{"bgp.messages", "count"},
		{"bgp.packets", "count"},
		{"bgp.route_changes", "count"},
		{"bgp.max_queue_len", "count"},
		{"bgp.paths_live", "count"},
		{"bgp.paths_dead", "count"},
		{"go.alloc_bytes_per_trial", "bytes"},
		{"go.gc_cycles_per_trial", "count"},
		{"go.gc_pause_s", "s"},
		{"experiment.sweep_s", "s"},
		{"experiment.cell_interval_s.p50", "s"},
		{"experiment.parallel_eff", "ratio"},
		{"churn.trial_s.p50", "s"},
		{"churn.windows_per_trial", "count"},
		{"dist.queue_wait_s.p50", "s"},
		{"dist.finish_s.p50", "s"},
	}
	for _, ep := range endpoints {
		defs = append(defs, metricDef{"dist." + ep + ".requests", "count"})
	}
	for _, ep := range endpoints {
		defs = append(defs, metricDef{"dist." + ep + ".handler_ms.p50", "ms"})
	}
	defs = append(defs, metricDef{"dist.lease.idle_replies", "count"})
	for _, k := range traceKinds {
		defs = append(defs, metricDef{"trace." + k, "count"})
	}
	defs = append(defs, metricDef{"trace.proc_batch_mean", "count"})
	for _, phase := range []string{"converge", "storm"} {
		for _, k := range traceKinds {
			defs = append(defs, metricDef{"trace." + k + "." + phase, "count"})
		}
		defs = append(defs, metricDef{"trace.proc_batch_mean." + phase, "count"})
	}
	defs = append(defs,
		metricDef{"des.events_per_trial", "count"},
		metricDef{"des.ns_per_event", "ns"},
		metricDef{"trace.overhead_s", "s"},
	)
	for _, name := range opSpanNames {
		defs = append(defs, metricDef{"span." + name + ".self_s", "s"})
	}
	return defs
}()

// endpoints are the service routes the traced churn run counts and times.
var endpoints = []string{"lease", "complete", "window", "submit", "query"}

// opSpanNames are the spans recorded inside operations; each one's self
// time per operation is a per-layer metric.
var opSpanNames = []string{
	"op", "bgp.reset", "bgp.warmstart", "bgp.storm", "experiment.sweep",
	"churn.trial", "dist.submit", "dist.query", "dist.lease", "dist.complete", "dist.window",
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow repetition from moving it.
const setupReps = 5

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to toy scale (smoke tests); its
	// numbers are not measurements.
	tiny bool
	// worlds lists the 500-AS world seeds storm500 runs.
	worlds []int64
	// root is the repository root: results/ is read from it and the run
	// record is written under its .bench_build/.
	root string
}

// ops sizes a run: c.seconds over the workload's budget per operation
// (README.md), at least lo. The count depends only on --seconds, never
// on the speed of the code under test, so two commits always time the
// same work.
func (c config) ops(refSeconds float64, lo int) int {
	return max(lo, int(c.seconds/refSeconds+0.5))
}

// outcome collects one run's checks, metrics and report.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	spans     *spanRecorder
	speed     *speedProbe
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and, when problems is non-empty,
// one failed operation, noting the first problems.
func (o *outcome) check(op string, problems []string) {
	o.attempted++
	if len(problems) == 0 {
		return
	}
	o.failed++
	for i, p := range problems {
		if i == 3 {
			o.note("FAIL %s: ... %d more", op, len(problems)-3)
			break
		}
		o.note("FAIL %s: %s", op, p)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *outcome) error{
	"storm500":      runStorm,
	"fig3_paper":    runFig3,
	"churn_service": runChurn,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: storm500 | fig3_paper | churn_service")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 28, "run length on the reference host; sizes the fixed work of the run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced repeat")
	fs.BoolVar(&cfg.tiny, "tiny", false, "toy scale for smoke tests (numbers are not measurements)")
	worlds := fs.String("worlds", "1", "storm500: comma-separated 500-AS world seeds")
	regen := fs.Bool("regen-expected", false, "recompute the committed expected output digests under perfbench/expected and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.root = root
	if *regen {
		if err := regenExpected(root, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.worlds, err = parseWorlds(*worlds); err != nil || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need positive --seconds and integer --worlds")
		return 2
	}

	h := readHost(root)
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d tiny=%v\n", cfg.workload, cfg.seed, cfg.seconds, *traceFlag, cfg.tiny)
	fmt.Fprintf(stdout, "# host: %s\n", h)
	o := newOutcome()
	if cfg.trace {
		o.spans = newSpanRecorder()
	}
	o.speed = startSpeedProbe()
	err = runner(cfg, o)
	o.speed.stopProbe()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := resultLine(o, defs, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", d.name, o.metrics[d.name], d.unit)
	}
	if err := writeRecord(cfg, h, o, line); err != nil {
		fmt.Fprintln(stderr, "perfbench: write record:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseWorlds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// resultLine renders the final JSON line. Every metric of defs must have
// been measured, except that a traced run reports 0 for layers the
// workload never reaches.
func resultLine(o *outcome, defs []metricDef, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if o.attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
}

// writeRecord keeps the run's host, notes and result (and, when traced,
// its spans) under .bench_build/perfbench/ for later inspection.
func writeRecord(cfg config, h host, o *outcome, line []byte) error {
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	level := 0
	if cfg.trace {
		level = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, level)
	rec, err := json.MarshalIndent(struct {
		Host   host            `json:"host"`
		Notes  []string        `json:"notes"`
		Result json.RawMessage `json:"result"`
	}{h, o.notes, line}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), rec, 0o644); err != nil {
		return err
	}
	if o.spans != nil {
		return o.spans.writeJSON(filepath.Join(dir, stem+".spans.json"))
	}
	return nil
}

// usage is the resource use of a measured interval.
type usage struct {
	start      time.Time
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	gcPause    time.Duration
}

func (u *usage) add(v usage) {
	u.wall += v.wall
	u.cpu += v.cpu
	u.mallocs += v.mallocs
	u.allocBytes += v.allocBytes
	u.gcs += v.gcs
	u.gcPause += v.gcPause
}

// meter measures one interval: start it, run the work, stop it.
type meter struct {
	wall time.Time
	cpu  time.Duration
	ms   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.wall = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.wall)
	cpu := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		start:      m.wall,
		wall:       wall,
		cpu:        cpu - m.cpu,
		mallocs:    ms.Mallocs - m.ms.Mallocs,
		allocBytes: ms.TotalAlloc - m.ms.TotalAlloc,
		gcs:        ms.NumGC - m.ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs),
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-memory high-water mark, less the
// speed probe's array (speed.go).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - chaseMiB // Linux reports KiB
}

// setEndToEnd fills the end-to-end metrics other than setup_s from the
// timed operations. Host times are in reference-host seconds (see
// speed.go); the raw figures go to the report. It returns the
// operations' times in reference-host seconds.
func setEndToEnd(o *outcome, ops []usage, trials, windows int) []float64 {
	var raw, ref usage
	per := make([]float64, len(ops))
	for i, u := range ops {
		f := o.speed.factor(u.start, u.wall)
		raw.add(u)
		u.wall = time.Duration(float64(u.wall) * f)
		u.cpu = time.Duration(float64(u.cpu) * f)
		ref.add(u)
		per[i] = u.wall.Seconds()
	}
	o.set("wall_s", ref.wall.Seconds())
	o.set("cpu_s", ref.cpu.Seconds())
	o.set("peak_rss_mb", peakRSSMB())
	o.set("op_s.p50", stats.Median(per))
	o.set("allocs_per_trial", float64(raw.mallocs)/float64(trials))
	o.set("windows_per_s", float64(windows)/ref.wall.Seconds())
	q1, q2, q3 := quartiles(per)
	o.note("op_s quartiles %.4f %.4f %.4f s over %d operations (reference-host seconds)", q1, q2, q3, len(ops))
	o.note("raw host time: wall %.3f s, cpu %.3f s; host speed factor %.3f", raw.wall.Seconds(), raw.cpu.Seconds(), ref.wall.Seconds()/raw.wall.Seconds())
	return per
}

// setSetup records setup_s, the median of the set-up repetitions in
// reference-host seconds.
func setSetup(o *outcome, reps []usage) {
	var raw, ref []float64
	for _, u := range reps {
		raw = append(raw, u.wall.Seconds())
		ref = append(ref, u.wall.Seconds()*o.speed.factor(u.start, u.wall))
	}
	o.set("setup_s", stats.Median(ref))
	o.note("setup repetitions: %.4f s raw", raw)
}

// setGoStats fills the go.* per-layer metrics from a measured pass.
func setGoStats(o *outcome, u usage, trials int) {
	o.set("go.alloc_bytes_per_trial", float64(u.allocBytes)/float64(trials))
	o.set("go.gc_cycles_per_trial", float64(u.gcs)/float64(trials))
	o.set("go.gc_pause_s", u.gcPause.Seconds())
}

// setSpanSelfTimes fills span.<name>.self_s: self seconds per operation
// of the spans under the traced pass's operations. The notes list every
// span's total, set-up included.
func setSpanSelfTimes(o *outcome, ops int) {
	list := o.spans.spans()
	inOps := selfTimes(list, "op")
	for _, name := range opSpanNames {
		o.set("span."+name+".self_s", inOps[name].Seconds()/float64(ops))
	}
	self := selfTimes(list, "")
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.note("span self time %-18s %.4fs total", n, self[n].Seconds())
	}
}

// seedIndex maps a workload seed and an operation index onto one of n
// committed input slots, so every seed's inputs have expected outputs.
func seedIndex(seed int64, perRun, i, n int) int {
	k := (uint64(seed-1)*uint64(perRun) + uint64(i)) % uint64(n)
	return int(k)
}
