package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpsim/internal/bgp"
	"bgpsim/internal/churn"
	"bgpsim/internal/trace"
)

// TestMain runs every test from the repository root, where the
// benchmark itself runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyStorm returns a converged post-failure simulator on the tiny world.
func tinyStorm(t *testing.T) *stormWorld {
	t.Helper()
	sc := stormScenario(true)
	params := bgp.DefaultParams()
	sc.Scheme.Apply(&params)
	params.WarmStart = true
	w, _, _, err := buildStormWorld(sc, params, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.trial(7, nil, nil); err != nil {
		t.Fatal(err)
	}
	return w
}

// corruptView alters one (router, destination) route of a real view.
type corruptView struct {
	*bgp.Simulator
	node, dest int
	edit       func([]int, bool) ([]int, bool)
}

func (c corruptView) LocPath(id, dest int) ([]int, bool) {
	p, ok := c.Simulator.LocPath(id, dest)
	if id == c.node && dest == c.dest {
		return c.edit(p, ok)
	}
	return p, ok
}

func TestRouteCheckRejectsCorruptedRoutes(t *testing.T) {
	w := tinyStorm(t)
	if problems := checkRoutes(w.net, w.sim); len(problems) != 0 {
		t.Fatalf("converged routes flagged: %v", problems)
	}
	// A surviving router with a route to a surviving origin.
	node, dest := -1, -1
	for r := 0; r < w.net.NumNodes() && node < 0; r++ {
		for _, d := range w.sim.Destinations() {
			if p, ok := w.sim.LocPath(r, d); ok && len(p) > 0 && w.sim.Alive(r) {
				node, dest = r, d
				break
			}
		}
	}
	if node < 0 {
		t.Fatal("no route to corrupt")
	}
	lengthen := func(p []int, ok bool) ([]int, bool) { return append(append([]int(nil), p...), p[len(p)-1]), ok }
	drop := func([]int, bool) ([]int, bool) { return nil, false }
	for name, edit := range map[string]func([]int, bool) ([]int, bool){"lengthened": lengthen, "dropped": drop} {
		problems := checkRoutes(w.net, corruptView{w.sim, node, dest, edit})
		if len(problems) != 1 {
			t.Errorf("%s route: %d problems %v, want 1", name, len(problems), problems)
		}
	}
	// Counted as one failed operation out of one.
	o := newOutcome()
	o.check("trial", checkRoutes(w.net, corruptView{w.sim, node, dest, lengthen}))
	if o.attempted != 1 || o.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 1", o.attempted, o.failed)
	}
}

func TestFigureCheckRejectsAlteredLine(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("results", "fig3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	paper := string(b)
	want, err := loadDigests(".", fig3DigestName(false))
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != digestOf(paper) {
		t.Fatal("committed seed-1 digest is not the digest of results/fig3.txt")
	}
	if problems := fig3Check(paper, 0, want, paper); len(problems) != 0 {
		t.Fatalf("recorded figure flagged: %v", problems)
	}
	lines := strings.Split(paper, "\n")
	lines[len(lines)/2] += "0"
	altered := strings.Join(lines, "\n")
	problems := fig3Check(altered, 0, want, paper)
	if len(problems) != 2 || !strings.Contains(problems[1], "line ") {
		t.Errorf("altered figure: %v, want a digest and a line mismatch", problems)
	}
	if problems := fig3Check(altered, 1, want, paper); len(problems) != 1 {
		t.Errorf("altered held-out figure: %v, want a digest mismatch", problems)
	}
}

func TestChurnCheckRejectsAlteredWindow(t *testing.T) {
	const slot = 5
	rr, err := churn.Run(context.Background(), churnScenario(true, slot), churnTrials, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := rr.Render()
	want, err := loadDigests(".", churnDigestName(true))
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkDigest("churn stream", stream, want, slot); len(problems) != 0 {
		t.Fatalf("committed stream flagged: %v", problems)
	}
	if windowsIn(stream) == 0 {
		t.Fatal("stream has no windows")
	}
	i := strings.Index(stream, " ann=")
	altered := stream[:i] + " ann=9" + stream[i+len(" ann="):]
	if problems := checkDigest("churn stream", altered, want, slot); len(problems) != 1 {
		t.Errorf("altered window: %v, want one mismatch", problems)
	}
}

func TestEventCounterSplitsAtFailure(t *testing.T) {
	c := &eventCounter{}
	ev := func(at int, k trace.Kind, v int) { c.Trace(trace.Event{At: time.Duration(at), Kind: k, Value: v}) }
	for trial := 0; trial < 2; trial++ {
		ev(1, trace.KindSend, 0)
		ev(2, trace.KindProcess, 4)
		ev(5, trace.KindNodeFailure, 0)
		ev(6, trace.KindProcess, 2)
		ev(7, trace.KindTimerRestart, 0)
		ev(8, trace.KindReceive, 0)
	}
	o := newOutcome()
	c.set(o, 2)
	checks := map[string]float64{
		"trace.send.converge":            1,
		"trace.send.storm":               0,
		"trace.proc":                     2,
		"trace.proc_batch_mean":          3,
		"trace.proc_batch_mean.storm":    2,
		"trace.proc_batch_mean.converge": 4,
		"des.events_per_trial":           4, // recv + 2 proc + timer
	}
	for name, want := range checks {
		if got := o.metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
