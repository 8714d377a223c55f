package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is stated in; the wants below are
// its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.5, 0.1, 0.9, 0.3, 0.7}, [3]float64{0.2, 0.5, 0.8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: order must not matter
		}
		return xs
	}
	cases := []struct{ n, pct, value int }{
		{11, 9, 1},
		{60, 83, 50},
		{100, 90, 90},
		{200, 90, 180}, // capped at p90
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(seq(c.n))
		if !ok || pct != c.pct || v != float64(c.value) {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%d", c.n, pct, v, ok, c.pct, c.value)
		}
		if beyond := c.n - c.value; c.pct < 90 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond p%d, want 10", c.n, beyond, c.pct)
		}
	}
	if _, _, ok := tailPercentile(seq(10)); ok {
		t.Error("ten samples cannot have ten beyond a percentile")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	s := func(name string, parent, from, to int) span {
		return span{Name: name, Parent: parent, Start: time.Duration(from), End: time.Duration(to)}
	}
	list := []span{
		s("root", -1, 0, 10),
		s("a", 0, 1, 3),
		s("a", 0, 2, 5),     // overlaps the first child: counted once
		s("b", 0, 8, 12),    // sticks out of the parent: clipped
		s("leaf", 3, 9, 10), // grandchild: covers b, not root
		{Name: "open", Parent: 0, Start: 6, End: -1},
	}
	got := selfTimes(list, "")
	want := map[string]time.Duration{"root": 10 - 4 - 2, "a": 2 + 3, "b": 4 - 1, "leaf": 1}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span has no self time")
	}
	// Only trees under a root of the given name count.
	list = append(list, s("setup", -1, 20, 30), s("a", 6, 21, 22))
	if got := selfTimes(list, "root")["a"]; got != 5 {
		t.Errorf("self(a) under root = %d, want 5", got)
	}
	if got := selfTimes(list, "")["a"]; got != 6 {
		t.Errorf("self(a) everywhere = %d, want 6", got)
	}
}

func TestSpanRecorderNilIsNoop(t *testing.T) {
	var r *spanRecorder
	id := r.begin("x", -1)
	r.end(id)
	if id != -1 || r.spans() != nil {
		t.Error("nil recorder recorded a span")
	}
	r = newSpanRecorder()
	parent := r.begin("p", -1)
	r.end(r.begin("c", parent))
	r.end(parent)
	if got := r.spans(); len(got) != 2 || got[1].Parent != parent || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

func TestSpeedFactorUsesSamplesInTheInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	p := &speedProbe{}
	for i := 0; i < 20; i++ {
		took := probeRef // reference speed for the first ten samples...
		if i >= 10 {
			took = 2 * probeRef // ...then the host runs at half speed
		}
		p.samples = append(p.samples, speedSample{at: t0.Add(time.Duration(i) * time.Second), took: took})
	}
	if f := p.factor(t0, 10*time.Second); !near(f, 1) {
		t.Errorf("fast interval factor %v, want 1", f)
	}
	if f := p.factor(t0.Add(10*time.Second), 10*time.Second); !near(f, 0.5) {
		t.Errorf("slow interval factor %v, want 0.5", f)
	}
	// Too few samples in the interval: the median of all of them.
	if f := p.factor(t0.Add(9*time.Second), 2*time.Second); !near(f, 0.5) {
		t.Errorf("short interval factor %v, want the overall 0.5", f)
	}

	// End-to-end times are scaled interval by interval.
	o := newOutcome()
	o.speed = p
	ops := []usage{
		{start: t0, wall: 10 * time.Second, cpu: 10 * time.Second, mallocs: 10},
		{start: t0.Add(10 * time.Second), wall: 10 * time.Second, cpu: 10 * time.Second, mallocs: 30},
	}
	per := setEndToEnd(o, ops, 2, 3)
	if !near(per[0], 10) || !near(per[1], 5) {
		t.Errorf("per-operation seconds %v, want [10 5]", per)
	}
	for name, want := range map[string]float64{"wall_s": 15, "cpu_s": 15, "allocs_per_trial": 20, "windows_per_s": 0.2} {
		if got := o.metrics[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
