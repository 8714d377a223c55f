package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark's hosts are shared virtual machines whose speed drifts
// by up to 1.5x over tens of seconds: the same storm trial takes 4.4 s
// in one minute and 6.4 s in the next, in CPU time as well as wall
// time. A run is too short to average that out, so host-time metrics
// are reported in reference-host seconds: each measured interval is
// scaled by how fast a fixed probe kernel ran during that same
// interval, relative to its speed on the reference host. Raw seconds
// stay in the report lines and the run record.
//
// The probe samples while the workload runs: readings taken between
// operations, with the workload idle, did not follow the host's drift.
// It therefore shares caches and memory bandwidth with the workload,
// and a change to the workload's memory traffic can move it a little
// (README.md).

// probeRef is the probe kernel's median duration on the reference host
// (README.md); it only sets the scale of reference-host seconds.
const probeRef = 2.0e-3

// probePeriod spaces the probe's samples; at about 2 ms per sample the
// probe uses 2% of one CPU.
const probePeriod = 100 * time.Millisecond

// chaseMiB is the size of the probe's pointer-chasing array: larger
// than a core's share of the last-level cache, as the simulator's
// routing tables are.
const chaseMiB = 16

// newChase returns the probe's pointer-chasing array. Following it
// from any slot visits every slot in a scrambled order (a full-period
// linear congruential map). Building it touches every page, so it stays
// resident for the whole run and peakRSSMB can leave it out exactly.
func newChase() []int32 {
	const n = chaseMiB << 20 / 4
	next := make([]int32, n)
	for i := range next {
		next[i] = int32((uint32(i)*1664525 + 1013904223) % n)
	}
	return next
}

// probeKernel is the fixed unit of work the speed probe times: integer
// arithmetic plus dependent loads through the chase array.
func probeKernel(chase []int32) uint64 {
	x := uint64(1)
	for i := 0; i < 150_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	j := int32(x % uint64(len(chase)))
	for i := 0; i < 8_000; i++ {
		j = chase[j]
	}
	return x + uint64(j)
}

// speedSample is one timed run of the probe kernel.
type speedSample struct {
	at   time.Time
	took float64 // seconds
}

// speedProbe samples the host's speed in the background for the
// duration of a run.
type speedProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

// startSpeedProbe starts sampling; stop it with stopProbe.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	chase := newChase()
	go func() {
		defer close(p.done)
		var sink uint64
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				_ = sink
				return
			case <-tick.C:
			}
			t := time.Now()
			sink += probeKernel(chase)
			s := speedSample{at: t, took: time.Since(t).Seconds()}
			p.mu.Lock()
			p.samples = append(p.samples, s)
			p.mu.Unlock()
		}
	}()
	return p
}

// stopProbe stops the sampler and waits for it to exit.
func (p *speedProbe) stopProbe() {
	close(p.stop)
	<-p.done
}

// factor is the reference-host scale for an interval that started at
// from and lasted d: probeRef over the median probe time in the
// interval. Intervals with fewer than five samples use the median over
// every sample so far.
func (p *speedProbe) factor(from time.Time, d time.Duration) float64 {
	to := from.Add(d)
	p.mu.Lock()
	defer p.mu.Unlock()
	var in, all []float64
	for _, s := range p.samples {
		all = append(all, s.took)
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s.took)
		}
	}
	if len(in) < 5 {
		in = all
	}
	if len(in) == 0 {
		return 1
	}
	sort.Float64s(in)
	return probeRef / in[len(in)/2]
}
