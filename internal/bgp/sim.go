package bgp

import (
	"fmt"
	"sort"
	"time"

	"bgpsim/internal/des"
	"bgpsim/internal/metrics"
	"bgpsim/internal/mrai"
	"bgpsim/internal/topology"
	"bgpsim/internal/trace"
)

// Simulator wires a topology, the BGP routers, and the event engine into
// one runnable simulation. Typical use:
//
//	sim, _ := New(net, params)
//	sim.Start()                      // originate one prefix per AS
//	sim.Run()                        // phase 1: initial convergence
//	failAt := sim.Now() + settle
//	sim.ScheduleFailure(failAt, nodes)
//	sim.Run()                        // phase 2: re-convergence
//	delay := sim.Collector().ConvergenceDelay()
//
// A Simulator is reusable: Reset rewinds it to time zero with a fresh
// parameter set, retaining the dense per-router state arrays, so
// repeated trials on one topology skip nearly all of the per-trial
// setup allocation that bgp.New pays.
//
// The Simulator owns the dense destination-index table: destination
// prefix ids are dest = AS·PrefixesPerAS + i with dense AS numbering
// (every in-tree generator numbers ASes 0..k-1), so a prefix id is used
// directly as the index into every per-router dense array. ndests is
// the table size, (maxAS+1)·PrefixesPerAS.
type Simulator struct {
	net     *topology.Network
	params  Params
	eng     *des.Engine
	rng     *des.RNG
	routers []*router
	col     *metrics.Collector
	origins []NodeID // dense: destination prefix -> originating router, -1 none
	nprefix int      // prefixes per AS
	ndests  int      // dense dest-index table size
	tracer  trace.Tracer

	// freeDeliveries is the free list of in-flight message events. A
	// delivery is taken here (or allocated) by deliver, scheduled on the
	// engine, and returned by its own Run, so steady-state message
	// transmission allocates nothing. The list only ever grows to the
	// peak number of simultaneously in-flight updates.
	freeDeliveries *delivery

	// tab interns every path the simulation creates (backed by a bump
	// arena); all RIB storage holds 4-byte routeRefs into it. Rewound by
	// Reset once every reference (RIBs, in-flight updates) is gone.
	tab pathTab

	// pathCompactions counts quiescence compaction sweeps this trial
	// (see maybeCompactPaths).
	pathCompactions int
}

// delivery is the pooled des.Runner carrying one in-flight update from
// router to router across a link.
type delivery struct {
	next     *delivery // free-list link
	from, to *router
	u        Update
}

// deliver schedules u to arrive at to after the link delay, reusing a
// pooled delivery event when one is free.
func (s *Simulator) deliver(from, to *router, delay time.Duration, u Update) {
	d := s.freeDeliveries
	if d != nil {
		s.freeDeliveries = d.next
		d.next = nil
	} else {
		d = &delivery{}
	}
	d.from, d.to, d.u = from, to, u
	s.eng.ScheduleRunnerAt(s.eng.Now()+delay, d)
}

// Run completes the delivery and returns the object to the free list.
func (d *delivery) Run() {
	from, to, u := d.from, d.to, d.u
	s := from.sim
	d.from, d.to, d.u = nil, nil, Update{}
	d.next = s.freeDeliveries
	s.freeDeliveries = d
	// The link is down if either endpoint died while in flight.
	if !from.alive || !to.alive {
		return
	}
	to.enqueue(u)
}

// emit delivers an event to the configured tracer, if any. Callers guard
// expensive event construction with `if s.tracer != nil` themselves when
// it matters; the event structs here are stack values, so the overhead
// of an unconditional call is one branch.
func (s *Simulator) emit(e trace.Event) {
	if s.tracer != nil {
		s.tracer.Trace(e)
	}
}

// New builds a simulator over net. The network must be non-empty; every
// AS originates PrefixesPerAS prefixes (default one) at its
// lowest-numbered router. New builds the topology-dependent skeleton and
// then delegates all run-state initialization to Reset, so a fresh
// simulator and a reused one are states of the same code path.
func New(net *topology.Network, params Params) (*Simulator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if net.NumNodes() == 0 {
		return nil, fmt.Errorf("bgp: empty network")
	}
	s := &Simulator{
		net: net,
		eng: des.NewEngine(),
		col: metrics.NewCollector(net.NumNodes()),
	}
	s.routers = make([]*router, net.NumNodes())
	for id := 0; id < net.NumNodes(); id++ {
		nbs := net.Neighbors(id)
		peers := make([]Peer, 0, len(nbs))
		for _, nb := range nbs {
			peers = append(peers, Peer{
				Node:     nb.ID,
				AS:       net.ASOf(nb.ID),
				Internal: nb.Internal,
			})
		}
		// Stable peer order: by node id. Slot order drives tie-breaking
		// iteration and message emission order.
		sort.Slice(peers, func(i, j int) bool { return peers[i].Node < peers[j].Node })
		s.routers[id] = newRouter(id, net.ASOf(id), peers, s)
	}
	if err := s.Reset(params); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds the simulator to time zero for a new run with the given
// parameters (including a new Seed): RIBs, advertisement bookkeeping,
// MRAI gates, inboxes, the metrics collector, the RNG, and the DES clock
// all return to their post-New state. The topology is retained — a reset
// simulator behaves byte-identically to bgp.New(s.Network(), params).
// Reset must not be called while a run is in progress (events pending in
// the engine are discarded).
//
// Retained across Reset: the dense per-router state arrays (cleared, not
// reallocated), inbox buffers when the queue discipline is unchanged,
// the engine's event free list, and the delivery pool — which is what
// makes repeated-trial sweeps cheap.
func (s *Simulator) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	s.params = params
	s.nprefix = max(1, params.PrefixesPerAS)
	s.tracer = params.Tracer
	s.rng = des.NewRNG(params.Seed)
	s.eng.Reset()
	s.col.Reset()
	// Safe exactly here: the engine drain above discarded in-flight
	// updates and the router resets below clear every RIB reference.
	s.tab.reset()
	s.pathCompactions = 0

	maxAS := 0
	for id := 0; id < s.net.NumNodes(); id++ {
		if as := s.net.ASOf(id); as > maxAS {
			maxAS = as
		}
	}
	s.ndests = (maxAS + 1) * s.nprefix
	if len(s.origins) != s.ndests {
		s.origins = make([]NodeID, s.ndests)
	}
	for i := range s.origins {
		s.origins[i] = -1
	}
	for id := 0; id < s.net.NumNodes(); id++ {
		as := s.net.ASOf(id)
		for i := 0; i < s.nprefix; i++ {
			dest := as*s.nprefix + i
			if cur := s.origins[dest]; cur < 0 || id < cur {
				s.origins[dest] = id
			}
		}
	}

	for _, r := range s.routers {
		for slot := range r.peers {
			delay := params.ExtDelay
			if r.peers[slot].Internal {
				delay = params.IntDelay
			}
			r.peers[slot].Delay = delay
		}
		r.reset(params, s.ndests)
	}
	return nil
}

// ASOfDest returns the AS that originates destination prefix dest.
func (s *Simulator) ASOfDest(dest int) ASN { return dest / s.nprefix }

// Start schedules the origination of every prefix, staggered uniformly
// over OriginationSpread. Destinations are scheduled in ascending order
// (the dense origin table's natural order).
func (s *Simulator) Start() {
	for dest, id := range s.origins {
		if id < 0 {
			continue
		}
		var at des.Time
		if s.params.OriginationSpread > 0 {
			at = s.rng.UniformDuration(0, s.params.OriginationSpread)
		}
		id, dest := id, dest
		s.eng.ScheduleAt(at, func() { s.routers[id].originate(dest) })
	}
}

// Run drains the event queue (to quiescence) and returns any engine error.
func (s *Simulator) Run() error {
	return s.eng.Run()
}

// SetCancel installs (or with nil removes) a cancellation probe on the
// underlying event engine. Run variants poll it periodically and abort
// with des.ErrCanceled when it reports true. Install it after Reset
// (which clears the probe) and before Run; the probe never alters
// results of runs that complete, only whether a run completes.
func (s *Simulator) SetCancel(cancel func() bool) {
	s.eng.SetCancel(cancel)
}

// RunUntil runs events up to the deadline.
func (s *Simulator) RunUntil(deadline des.Time) error {
	return s.eng.RunUntil(deadline)
}

// Now returns the current simulated time.
func (s *Simulator) Now() des.Time { return s.eng.Now() }

// Collector exposes the metrics collector.
func (s *Simulator) Collector() *metrics.Collector { return s.col }

// openWindow opens the measurement window on the collector.
func (s *Simulator) openWindow(at des.Time) {
	stormProfileOpen() // storm-scoped CPU profile starts with the window
	s.col.OpenWindow(at)
}

// normalizeWindow canonicalizes every piece of run state that could
// carry phase-1 residue into the measurement window: the random stream
// is reseeded from Params.Seed, and every live router expires its MRAI
// gates, restarts its flap counters, and rebuilds its policy, damper,
// and load accounting (router.normalizeWindow). It runs at window open in every
// mode — cold and warm start alike — which makes the post-failure
// dynamics a pure function of (topology, converged routing state,
// failure set, parameters, seed). That contract is what lets a
// warm-started trial reproduce a cold-started one byte-for-byte: the two
// arrive at the window with identical routing state and, after
// normalization, identical everything else.
func (s *Simulator) normalizeWindow(at des.Time) {
	s.rng.Reseed(s.params.Seed)
	for _, r := range s.routers {
		r.normalizeWindow(at)
	}
}

// ScheduleFailure kills the given nodes at time at and opens the metrics
// measurement window there, normalizing away any phase-1 residue first
// (see normalizeWindow). Surviving neighbors run session-down processing
// after DetectDelay.
func (s *Simulator) ScheduleFailure(at des.Time, nodes []int) {
	failed := append([]int(nil), nodes...)
	sort.Ints(failed)
	s.eng.ScheduleAt(at, func() {
		s.openWindow(at)
		s.normalizeWindow(at)
		for _, id := range failed {
			if id >= 0 && id < len(s.routers) {
				s.routers[id].kill()
				s.emit(trace.Event{At: at, Kind: trace.KindNodeFailure, Node: id, Peer: -1, Dest: -1})
			}
		}
		if s.params.OracleMRAI != nil {
			s.applyOracle(len(failed))
		}
		// Session-down processing at surviving peers.
		for _, id := range failed {
			if id < 0 || id >= len(s.routers) {
				continue
			}
			for _, peer := range s.routers[id].peers {
				nb := s.routers[peer.Node]
				if !nb.alive {
					continue
				}
				slot, ok := nb.slotOf[id]
				if !ok {
					continue
				}
				if s.params.DetectDelay > 0 {
					s.eng.ScheduleAt(at+s.params.DetectDelay, func() { nb.peerDown(slot) })
				} else {
					nb.peerDown(slot)
				}
			}
		}
	})
}

// ScheduleLinkFailure tears down the sessions on the given links at time
// at without killing any router — the link-only failure mode the paper
// sets aside as unlikely for large-scale disasters but which matters for
// fiber cuts. Each link is a pair of node IDs; unknown or already-down
// sessions are ignored. The metrics window opens at the failure time.
func (s *Simulator) ScheduleLinkFailure(at des.Time, links [][2]int) {
	cut := append([][2]int(nil), links...)
	s.eng.ScheduleAt(at, func() {
		s.openWindow(at)
		s.normalizeWindow(at)
		for _, l := range cut {
			a, b := l[0], l[1]
			if a < 0 || b < 0 || a >= len(s.routers) || b >= len(s.routers) {
				continue
			}
			ra, rb := s.routers[a], s.routers[b]
			slotAB, okA := ra.slotOf[b]
			slotBA, okB := rb.slotOf[a]
			if !okA || !okB {
				continue
			}
			down := func(r *router, slot int) {
				if s.params.DetectDelay > 0 {
					s.eng.ScheduleAt(at+s.params.DetectDelay, func() { r.peerDown(slot) })
				} else {
					r.peerDown(slot)
				}
			}
			down(ra, slotAB)
			down(rb, slotBA)
		}
	})
}

// ScheduleRecovery revives the given (previously failed) routers at time
// at. Revived routers come back with empty RIBs — as after a reboot —
// re-originate their prefixes where applicable, and re-establish sessions
// with every live neighbor; both sides then exchange full tables, the
// standard BGP session-establishment behaviour.
func (s *Simulator) ScheduleRecovery(at des.Time, nodes []int) {
	revived := append([]int(nil), nodes...)
	sort.Ints(revived)
	s.eng.ScheduleAt(at, func() {
		// Phase 1: bring the routers back with clean state.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) {
				continue
			}
			r := s.routers[id]
			if r.alive {
				continue
			}
			r.revive()
			s.emit(trace.Event{At: at, Kind: trace.KindNodeRecovery, Node: id, Peer: -1, Dest: -1})
		}
		// Phase 2: re-originate prefixes whose origin router came back.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) || !s.routers[id].alive {
				continue
			}
			as := s.net.ASOf(id)
			for i := 0; i < s.nprefix; i++ {
				dest := as*s.nprefix + i
				if dest < len(s.origins) && s.origins[dest] == id {
					s.routers[id].originate(dest)
				}
			}
		}
		// Phase 3: re-establish sessions where both endpoints are alive.
		for _, id := range revived {
			if id < 0 || id >= len(s.routers) || !s.routers[id].alive {
				continue
			}
			r := s.routers[id]
			for slot, peer := range r.peers {
				nb := s.routers[peer.Node]
				if !nb.alive {
					continue
				}
				r.peerUp(slot)
				if nbSlot, ok := nb.slotOf[id]; ok {
					nb.peerUp(nbSlot)
				}
			}
		}
	})
}

// applyOracle switches every surviving Settable policy to the MRAI the
// oracle table prescribes for this failure extent. Like the dynamic
// scheme, the change takes effect at each router's next timer restart.
func (s *Simulator) applyOracle(failedCount int) {
	d := s.params.OracleMRAI(float64(failedCount) / float64(len(s.routers)))
	for _, r := range s.routers {
		if !r.alive {
			continue
		}
		if settable, ok := r.policy.(mrai.Settable); ok {
			settable.Set(d)
		}
	}
}

// Alive reports whether node id survived.
func (s *Simulator) Alive(id NodeID) bool {
	return id >= 0 && id < len(s.routers) && s.routers[id].alive
}

// LocPath returns node id's current best path to dest and whether one
// exists. The caller must not modify the returned slice.
func (s *Simulator) LocPath(id NodeID, dest ASN) (Path, bool) {
	if id < 0 || id >= len(s.routers) {
		return nil, false
	}
	if dest < 0 || dest >= s.routers[id].ndests {
		return nil, false
	}
	ref, ok := s.routers[id].loc.getRef(dest)
	if !ok {
		return nil, false
	}
	return s.tab.path(ref), true
}

// Destinations returns the sorted list of originated prefixes. With
// PrefixesPerAS == 1 (the default) prefix ids equal AS numbers; otherwise
// AS a originates prefixes a*k .. a*k+k-1.
func (s *Simulator) Destinations() []int {
	out := make([]int, 0, len(s.origins))
	for dest, id := range s.origins {
		if id >= 0 {
			out = append(out, dest)
		}
	}
	return out
}

// OriginOf returns the router originating destination prefix dest.
func (s *Simulator) OriginOf(dest int) (NodeID, bool) {
	if dest < 0 || dest >= len(s.origins) || s.origins[dest] < 0 {
		return 0, false
	}
	return s.origins[dest], true
}

// Network returns the topology the simulator runs on.
func (s *Simulator) Network() *topology.Network { return s.net }

// PolicyLevelHistogram returns, for dynamic-MRAI runs, how many live
// routers sit at each ladder level (diagnostic).
func (s *Simulator) PolicyLevelHistogram() map[int]int {
	h := make(map[int]int)
	for _, r := range s.routers {
		if !r.alive {
			continue
		}
		type leveler interface{ Level() int }
		if lv, ok := r.policy.(leveler); ok {
			h[lv.Level()]++
		}
	}
	return h
}

// Compaction trigger thresholds (variables so tests can force the sweep
// on small topologies). The sweep runs at quiescence when the table has
// at least CompactMinPaths registrations and the dead fraction — paths
// no RIB cell references anymore — is at least CompactDeadFraction.
var (
	CompactMinPaths     = 1 << 16
	CompactDeadFraction = 0.5
)

// PathStats describes the interned-path table footprint.
type PathStats struct {
	// Registered counts paths currently registered (since the last Reset
	// or compaction).
	Registered int
	// Live counts distinct refs reachable from RIB storage.
	Live int
	// Compactions counts the sweeps performed since the last Reset.
	Compactions int
}

// forEachRefCell invokes fn on every occupied routeRef cell in RIB
// storage — Loc-RIB refs and export caches, Adj-RIB-In columns, and the
// advertised bookkeeping — so callers can count or rewrite refs in
// place. In-flight updates are not visited; callers run at quiescence.
func (s *Simulator) forEachRefCell(fn func(*routeRef)) {
	for _, r := range s.routers {
		for i := range r.loc.refs {
			if r.loc.refs[i] != 0 {
				fn(&r.loc.refs[i])
			}
		}
		for i := range r.loc.exports {
			if r.loc.exports[i] != 0 {
				fn(&r.loc.exports[i])
			}
		}
		for si := range r.adjIn.slots {
			refs := r.adjIn.slots[si].refs
			for i := range refs {
				if refs[i] != 0 {
					fn(&refs[i])
				}
			}
		}
		for si := range r.advertised {
			refs := r.advertised[si].refs
			for i := range refs {
				if refs[i] != 0 {
					fn(&refs[i])
				}
			}
		}
	}
}

// PathTableStats reports the path-table footprint (see PathStats).
func (s *Simulator) PathTableStats() PathStats {
	ps := PathStats{Compactions: s.pathCompactions, Registered: len(s.tab.paths)}
	seen := make([]bool, len(s.tab.paths)+1)
	s.forEachRefCell(func(p *routeRef) {
		if !seen[*p] {
			seen[*p] = true
			ps.Live++
		}
	})
	return ps
}

// maybeCompactPaths runs the dead-path compaction sweep when the trigger
// thresholds are met: at quiescence (no in-flight updates, the caller's
// obligation) the live refs are exactly those in RIB storage, so the
// table is rebuilt around them and the dead majority — every transient
// path the exploration storm interned — is released in one move. The
// sweep is behavior-neutral: refs are acceleration, not identity.
func (s *Simulator) maybeCompactPaths() {
	total := len(s.tab.paths)
	if total < CompactMinPaths {
		return
	}
	seen := make([]bool, total+1)
	live := 0
	s.forEachRefCell(func(p *routeRef) {
		if !seen[*p] {
			seen[*p] = true
			live++
		}
	})
	if float64(total-live) < CompactDeadFraction*float64(total) {
		return
	}
	c := newPathCompactor(&s.tab)
	s.forEachRefCell(func(p *routeRef) { *p = c.ref(*p) })
	// Struct assignment through the shared address: every router's tab
	// pointer (&s.tab) observes the compacted table.
	s.tab = c.dst
	s.pathCompactions++
}

// SettleMargin is the idle gap inserted between initial convergence and
// failure injection so Phase 1 stragglers never overlap the window.
const SettleMargin = 5 * time.Second

// ConvergeAndFail is the standard experiment flow: run initial
// convergence, inject the failure SettleMargin later, re-converge, and
// return the post-failure convergence delay. With Params.WarmStart the
// initial convergence is not simulated at all: the snapshot backend's
// fixpoint is installed as the converged state (warmStart) and the
// failure fires SettleMargin into the run. Window normalization at
// failure time (normalizeWindow) makes the two starts indistinguishable
// from the measurement window onward.
func (s *Simulator) ConvergeAndFail(nodes []int) (time.Duration, error) {
	begin := time.Now()
	if err := s.ConvergeInitial(); err != nil {
		return 0, err
	}
	addSetupNs(begin)
	failAt := s.Now() + SettleMargin
	s.ScheduleFailure(failAt, nodes)
	begin = time.Now()
	err := s.Run()
	addStormNs(begin)
	stormProfileClose() // quiescence closes the storm-scoped profile
	if err != nil {
		return 0, fmt.Errorf("re-convergence: %w", err)
	}
	return s.Collector().ConvergenceDelay(), nil
}
