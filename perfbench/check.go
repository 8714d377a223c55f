package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// routeView is what the route check reads from a converged simulator;
// *bgp.Simulator implements it.
type routeView interface {
	Alive(id int) bool
	LocPath(id, dest int) ([]int, bool)
	Destinations() []int
	OriginOf(dest int) (int, bool)
}

// checkRoutes compares every surviving (router, destination) pair with
// breadth-first hop counts on the surviving graph. With no routing
// policy, converged BGP holds a route exactly when the origin is
// reachable, and the route is a shortest path: its AS path has one
// entry per hop (one router per AS). Needs no committed value, so it
// holds for any seed.
func checkRoutes(net *topology.Network, v routeView) []string {
	n := net.NumNodes()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = v.Alive(i)
	}
	var problems []string
	for _, dest := range v.Destinations() {
		origin, ok := v.OriginOf(dest)
		if !ok {
			continue
		}
		hops := net.BFSHops(origin, alive) // all -1 when the origin died
		for r := 0; r < n; r++ {
			if !alive[r] {
				continue
			}
			path, has := v.LocPath(r, dest)
			switch want := hops[r]; {
			case has != (want >= 0):
				problems = append(problems, fmt.Sprintf("router %d dest %d: route=%v, origin reachable=%v", r, dest, has, want >= 0))
			case has && len(path) != want:
				problems = append(problems, fmt.Sprintf("router %d dest %d: path length %d, shortest %d", r, dest, len(path), want))
			}
		}
	}
	return problems
}

// digestOf is the hex SHA-256 of an output.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// expectedPath is where a committed digest table lives.
func expectedPath(root, name string) string {
	return filepath.Join(root, "perfbench", "expected", name+".sha256")
}

// loadDigests reads a committed table of "slot sha256" lines.
func loadDigests(root, name string) (map[int]string, error) {
	f, err := os.Open(expectedPath(root, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[int]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		slot, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s: bad slot %q", name, fields[0])
		}
		out[slot] = fields[1]
	}
	return out, sc.Err()
}

// checkDigest compares an output with its committed digest.
func checkDigest(what, got string, want map[int]string, slot int) []string {
	w, ok := want[slot]
	switch {
	case !ok:
		return []string{fmt.Sprintf("%s: no committed digest for slot %d", what, slot)}
	case digestOf(got) != w:
		return []string{fmt.Sprintf("%s: output digest %.16s, committed %.16s", what, digestOf(got), w)}
	}
	return nil
}

// checkSameText compares an output with a committed reference file and
// names the first line that differs.
func checkSameText(what, got, want string) []string {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return []string{fmt.Sprintf("%s line %d: got %q, want %q", what, i+1, gl, wl)}
		}
	}
	return []string{what + ": differs"}
}

// traceKinds are the counted bgp event kinds, in metric-name form.
var traceKinds = []string{"send", "recv", "proc", "route_change", "timer_restart"}

var kindIndex = map[trace.Kind]int{
	trace.KindSend:         0,
	trace.KindReceive:      1,
	trace.KindProcess:      2,
	trace.KindRouteChange:  3,
	trace.KindTimerRestart: 4,
}

// eventCounter is the benchmark's trace.Tracer: it counts bgp events
// per kind, split at each trial's failure into the initial-convergence
// and post-failure storm phases. It assumes one trial at a time: a trial
// starts when simulated time steps backwards.
type eventCounter struct {
	storm     bool
	lastAt    time.Duration
	n         [2][5]int64
	procValue [2]int64
}

func (c *eventCounter) Trace(e trace.Event) {
	if e.At < c.lastAt {
		c.storm = false
	}
	c.lastAt = e.At
	if e.Kind == trace.KindNodeFailure {
		c.storm = true
	}
	k, ok := kindIndex[e.Kind]
	if !ok {
		return
	}
	p := 0
	if c.storm {
		p = 1
	}
	c.n[p][k]++
	if e.Kind == trace.KindProcess {
		c.procValue[p] += int64(e.Value)
	}
}

// set fills the trace.* and des.* event metrics, per trial.
func (c *eventCounter) set(o *outcome, trials int) {
	per := func(v int64) float64 { return float64(v) / float64(trials) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for k, name := range traceKinds {
		o.set("trace."+name, per(c.n[0][k]+c.n[1][k]))
		o.set("trace."+name+".converge", per(c.n[0][k]))
		o.set("trace."+name+".storm", per(c.n[1][k]))
	}
	proc := kindIndex[trace.KindProcess]
	o.set("trace.proc_batch_mean", ratio(c.procValue[0]+c.procValue[1], c.n[0][proc]+c.n[1][proc]))
	o.set("trace.proc_batch_mean.converge", ratio(c.procValue[0], c.n[0][proc]))
	o.set("trace.proc_batch_mean.storm", ratio(c.procValue[1], c.n[1][proc]))
	o.set("des.events_per_trial", per(c.events()))
}

// events is the des-event proxy: receives, work units and MRAI timer
// restarts, each of which the simulator schedules as an engine event.
func (c *eventCounter) events() int64 {
	var n int64
	for p := range c.n {
		n += c.n[p][kindIndex[trace.KindReceive]] + c.n[p][kindIndex[trace.KindProcess]] + c.n[p][kindIndex[trace.KindTimerRestart]]
	}
	return n
}
