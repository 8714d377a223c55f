// Package churn drives the simulator through streaming scenario
// programs — sequences of timed perturbations instead of the paper's one
// batch failure. A program (Spec) expands into a deterministic event
// stream per (seed, spec): Poisson link-flap or node-failure arrival,
// rolling regional outages sweeping the grid, and flap-then-recover
// cycles on a single link. The runner injects the stream through the
// simulator's existing absolute-time failure/recovery path, so churn
// composes with multi-prefix tables and warm start exactly as batch
// failures do, and every perturbation opens its own measurement window
// (the normalizeWindow canonicalization), yielding a per-event stream of
// delay/message metrics.
package churn

import (
	"fmt"
	"sort"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/topology"
)

// Kind names a churn program family.
type Kind string

// The program families. Poisson kinds draw arrival times from an
// exponential inter-arrival distribution over [0, Duration); structural
// kinds (rolling outage, flap cycle) place their perturbations on a
// fixed schedule and draw only hold times.
const (
	// PoissonLinkFlap: arrivals flap a uniformly chosen link — session
	// down on both ends, restored after a uniform hold.
	PoissonLinkFlap Kind = "poisson-link-flap"
	// PoissonNodeFail: arrivals kill a uniformly chosen router, revived
	// after a uniform hold (reboot with empty RIBs).
	PoissonNodeFail Kind = "poisson-node-fail"
	// RollingOutage: Regions regional failures sweep the grid west to
	// east, Period apart; each takes down the Fraction of routers
	// nearest the region anchor and revives them after a uniform hold.
	RollingOutage Kind = "rolling-outage"
	// FlapCycle: one uniformly chosen link is torn down and restored
	// Cycles times, Period apart — the classic rx-link flap loop.
	FlapCycle Kind = "flap-cycle"
)

// Spec is a churn program: a compact, wire-able description that, with a
// topology and an RNG stream, expands into a deterministic event stream
// (see Expand). Only the fields of the chosen Kind are consulted.
type Spec struct {
	Kind Kind `json:"kind"`
	// Duration is the arrival horizon for the Poisson kinds: arrivals
	// occur in [0, Duration) of program time.
	Duration time.Duration `json:"duration,omitempty"`
	// Rate is the mean Poisson arrival rate in events per simulated
	// second.
	Rate float64 `json:"rate,omitempty"`
	// HoldMin/HoldMax bound the uniform hold (down) time of every
	// perturbation. HoldMin == HoldMax pins it.
	HoldMin time.Duration `json:"hold_min,omitempty"`
	HoldMax time.Duration `json:"hold_max,omitempty"`
	// Cycles is the flap-cycle repetition count.
	Cycles int `json:"cycles,omitempty"`
	// Period spaces flap cycles and rolling outages.
	Period time.Duration `json:"period,omitempty"`
	// Regions is the rolling-outage region count.
	Regions int `json:"regions,omitempty"`
	// Fraction is the fraction of all routers failing per region.
	Fraction float64 `json:"fraction,omitempty"`
}

// maxArrivals caps Poisson expansion so a mis-specified Rate×Duration
// cannot produce an unbounded event stream.
const maxArrivals = 10000

// Validate checks the spec describes a well-formed program.
func (s Spec) Validate() error {
	holds := func() error {
		if s.HoldMin <= 0 || s.HoldMax < s.HoldMin {
			return fmt.Errorf("churn: need 0 < hold_min <= hold_max, got [%v, %v]", s.HoldMin, s.HoldMax)
		}
		return nil
	}
	switch s.Kind {
	case PoissonLinkFlap, PoissonNodeFail:
		if s.Rate <= 0 || s.Duration <= 0 {
			return fmt.Errorf("churn: %s needs rate > 0 and duration > 0", s.Kind)
		}
		if mean := s.Rate * s.Duration.Seconds(); mean > maxArrivals {
			return fmt.Errorf("churn: rate %g over %v expects %.0f arrivals (cap %d)", s.Rate, s.Duration, mean, maxArrivals)
		}
		return holds()
	case RollingOutage:
		if s.Regions <= 0 || s.Period <= 0 {
			return fmt.Errorf("churn: %s needs regions > 0 and period > 0", s.Kind)
		}
		if s.Fraction <= 0 || s.Fraction > 1 {
			return fmt.Errorf("churn: %s needs fraction in (0, 1], got %g", s.Kind, s.Fraction)
		}
		return holds()
	case FlapCycle:
		if s.Cycles <= 0 || s.Period <= 0 {
			return fmt.Errorf("churn: %s needs cycles > 0 and period > 0", s.Kind)
		}
		if err := holds(); err != nil {
			return err
		}
		if s.HoldMax > s.Period {
			return fmt.Errorf("churn: %s hold_max %v exceeds period %v (cycles would overlap)", s.Kind, s.HoldMax, s.Period)
		}
		return nil
	default:
		return fmt.Errorf("churn: unknown program kind %q", s.Kind)
	}
}

// EventKind labels one perturbation in an expanded stream.
type EventKind uint8

// The perturbation kinds an event stream is built from. Down kinds open
// their measurement window through the simulator's failure path; up
// kinds open it explicitly before the recovery.
const (
	EventLinkDown EventKind = iota
	EventLinkUp
	EventNodeDown
	EventNodeUp
)

// String returns the stable label used in rendered metric streams.
func (k EventKind) String() string {
	switch k {
	case EventLinkDown:
		return "link-down"
	case EventLinkUp:
		return "link-up"
	case EventNodeDown:
		return "node-down"
	case EventNodeUp:
		return "node-up"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one timed perturbation of an expanded program: at offset At
// from the program start, apply Kind to Nodes or Links (whichever the
// kind uses).
type Event struct {
	At    time.Duration
	Kind  EventKind
	Nodes []int
	Links [][2]int
}

// Expand materializes spec into its event stream on net, consuming draws
// from rng in a fixed order so the stream is a pure function of (net,
// spec, rng state). Events are sorted by time; simultaneous events keep
// their generation order. Perturbations and their recoveries are
// independent entries — overlapping holds on one target degrade to
// no-ops at apply time (session and liveness transitions are
// idempotent), never to errors.
func Expand(net *topology.Network, spec Spec, rng *des.RNG) ([]Event, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var events []Event
	switch spec.Kind {
	case PoissonLinkFlap, PoissonNodeFail:
		links := net.Links()
		if spec.Kind == PoissonLinkFlap && len(links) == 0 {
			return nil, fmt.Errorf("churn: %s on a topology with no links", spec.Kind)
		}
		t := time.Duration(0)
		for n := 0; n < maxArrivals; n++ {
			// Draw order per arrival is fixed: inter-arrival gap, then
			// target, then hold.
			t += time.Duration(rng.ExpFloat64() / spec.Rate * float64(time.Second))
			if t >= spec.Duration {
				break
			}
			hold := func() time.Duration { return rng.UniformDuration(spec.HoldMin, spec.HoldMax) }
			if spec.Kind == PoissonLinkFlap {
				l := links[rng.Intn(len(links))]
				pair := [2]int{l.A, l.B}
				h := hold()
				events = append(events,
					Event{At: t, Kind: EventLinkDown, Links: [][2]int{pair}},
					Event{At: t + h, Kind: EventLinkUp, Links: [][2]int{pair}})
			} else {
				node := rng.Intn(net.NumNodes())
				h := hold()
				events = append(events,
					Event{At: t, Kind: EventNodeDown, Nodes: []int{node}},
					Event{At: t + h, Kind: EventNodeUp, Nodes: []int{node}})
			}
		}
	case RollingOutage:
		k := int(spec.Fraction*float64(net.NumNodes()) + 0.5)
		if k < 1 {
			k = 1
		}
		grid := net.Grid()
		for i := 0; i < spec.Regions; i++ {
			// Region anchors sweep the grid west to east along the
			// horizontal midline; targets are deterministic, only the
			// hold time is drawn.
			anchor := topology.Point{X: grid * (float64(i) + 0.5) / float64(spec.Regions), Y: grid / 2}
			nodes := topology.NearestNodes(net, anchor, k, nil)
			t := time.Duration(i) * spec.Period
			h := rng.UniformDuration(spec.HoldMin, spec.HoldMax)
			events = append(events,
				Event{At: t, Kind: EventNodeDown, Nodes: nodes},
				Event{At: t + h, Kind: EventNodeUp, Nodes: nodes})
		}
	case FlapCycle:
		links := net.Links()
		if len(links) == 0 {
			return nil, fmt.Errorf("churn: %s on a topology with no links", spec.Kind)
		}
		l := links[rng.Intn(len(links))]
		pair := [2]int{l.A, l.B}
		for c := 0; c < spec.Cycles; c++ {
			t := time.Duration(c) * spec.Period
			h := rng.UniformDuration(spec.HoldMin, spec.HoldMax)
			events = append(events,
				Event{At: t, Kind: EventLinkDown, Links: [][2]int{pair}},
				Event{At: t + h, Kind: EventLinkUp, Links: [][2]int{pair}})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}
