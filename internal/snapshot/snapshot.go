// Package snapshot computes the converged routing state of a topology
// directly — no events — by rounds of relaxation over flat per-(node,
// destination-AS) arrays, the matrix-style formulation of BGP route
// selection. It implements exactly the decision and export semantics of
// the discrete-event simulator (internal/bgp): shortest AS path with the
// deterministic tie-break in the policy-free configuration, and
// valley-free customer > peer > provider selection under a Gao–Rexford
// relationship annotation. The fixpoint it reaches is the state the DES
// quiesces in, which makes the package usable three ways:
//
//   - as a differential oracle for the simulator's decision process
//     (snapshot routes must equal DES converged routes);
//   - as a warm start: bgp.Params.WarmStart installs the snapshot as the
//     initial RIB state so trials begin at failure injection;
//   - as a scale mode (cmd/bgpsnap): converged-state statistics at
//     10k+-AS sizes the event simulator cannot reach.
//
// Exactness argument. A node's stored route is a function of the
// neighbor it learned from (the from-pointer); candidate generation
// replicates the simulator's export rules (split horizon, the IBGP
// no-relay rule, Gao–Rexford export filtering, AS-loop suppression) and
// selection replicates its strict total order. Any fixpoint of the
// synchronous relaxation has acyclic from-chains — split horizon kills
// two-cycles, the no-relay rule caps internal chains at one hop, and
// every external hop strictly grows the path — so a fixpoint satisfies
// the simulator's quiescence equations exactly. Shortest-path ranking
// and the acyclic provider hierarchies both in-tree annotators produce
// (strictly decreasing degree, or strictly decreasing BFS level, along
// provider→customer edges) guarantee the iteration converges to the
// unique such fixpoint; a generous round cap turns any violation of
// those preconditions into an error instead of a hang.
package snapshot

import (
	"fmt"
	"sort"

	"bgpsim/internal/topology"
)

// From-pointer sentinels; real values are node IDs (>= 0).
const (
	// FromNone marks a (node, AS) pair with no converged route.
	FromNone int32 = -1
	// FromSelf marks the origin node of the AS (locally originated).
	FromSelf int32 = -2
)

// Config parameterizes a snapshot computation.
type Config struct {
	// Policy enables Gao–Rexford valley-free selection and export under
	// the given relationship annotation; nil selects the paper's
	// policy-free shortest-path configuration. The same annotation must
	// be handed to the DES (bgp.Params.Policy) for the two backends to
	// agree — see topology.Spec.Relationships for carrying one
	// annotation to both.
	Policy *topology.Relationships

	// MaxRounds caps the relaxation sweeps per destination AS (0 means
	// an automatic cap of 4·nodes+16). Exceeding it returns an error —
	// it means the preference system has no unique fixpoint, which the
	// in-tree relationship annotators cannot produce.
	MaxRounds int
}

// nbr is one precomputed directed adjacency: everything candidate
// evaluation needs without a map lookup.
type nbr struct {
	node     int32
	as       int32
	internal bool
	// cls is the route class at the owning node for routes learned from
	// this neighbor: 0 customer/internal/none, 1 peer, 2 provider —
	// bgp's routeClass.
	cls uint8
	// expOK reports whether the neighbor may export its peer- and
	// provider-learned routes to the owner (the owner is the neighbor's
	// customer, or the link is unannotated) — the Gao–Rexford export
	// rule evaluated once per directed edge.
	expOK bool
}

// world is the immutable precomputed view of (network, policy) every
// per-AS relaxation shares.
type world struct {
	net *topology.Network
	pol *topology.Relationships
	n   int
	as  []int32 // node -> AS number
	// nbrs lists each node's neighbors sorted by node ID — the
	// simulator's peer slot order, which the tie-break depends on.
	nbrs   [][]nbr
	origin []int32 // dense per AS: originating node (lowest ID), -1 none
	maxAS  int
}

func buildWorld(net *topology.Network, pol *topology.Relationships) *world {
	n := net.NumNodes()
	w := &world{net: net, pol: pol, n: n}
	w.as = make([]int32, n)
	maxAS := 0
	for i := 0; i < n; i++ {
		as := net.ASOf(i)
		w.as[i] = int32(as)
		if as > maxAS {
			maxAS = as
		}
	}
	w.maxAS = maxAS
	w.origin = make([]int32, maxAS+1)
	for i := range w.origin {
		w.origin[i] = -1
	}
	for i := 0; i < n; i++ {
		as := w.as[i]
		if cur := w.origin[as]; cur < 0 || int32(i) < cur {
			w.origin[as] = int32(i)
		}
	}
	w.nbrs = make([][]nbr, n)
	for i := 0; i < n; i++ {
		adj := net.Neighbors(i)
		list := make([]nbr, 0, len(adj))
		for _, a := range adj {
			e := nbr{node: int32(a.ID), as: w.as[a.ID], internal: a.Internal, expOK: true}
			if pol != nil && !a.Internal {
				switch pol.Of(i, a.ID) {
				case topology.RelPeer:
					e.cls = 1
				case topology.RelProvider:
					e.cls = 2
				}
				rel := pol.Of(a.ID, i)
				e.expOK = rel == topology.RelCustomer || rel == topology.RelNone
			}
			list = append(list, e)
		}
		sort.Slice(list, func(a, b int) bool { return list[a].node < list[b].node })
		w.nbrs[i] = list
	}
	return w
}

// bfsOrder appends a breadth-first node order from src (all links, both
// directions) to buf, then any unreached nodes in ID order, so a sweep
// visits nodes roughly in the direction routes propagate.
func (w *world) bfsOrder(src int, buf []int32, seen []bool) []int32 {
	for i := range seen {
		seen[i] = false
	}
	buf = buf[:0]
	buf = append(buf, int32(src))
	seen[src] = true
	for head := 0; head < len(buf); head++ {
		v := buf[head]
		for _, e := range w.nbrs[v] {
			if !seen[e.node] {
				seen[e.node] = true
				buf = append(buf, e.node)
			}
		}
	}
	for i := 0; i < w.n; i++ {
		if !seen[i] {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// state holds one destination AS's relaxation arrays, reused across ASes.
type state struct {
	from    []int32
	plen    []int32
	cls     []uint8
	fromInt []bool
	mask    []uint64
	order   []int32
	seen    []bool
}

func newState(n int) *state {
	return &state{
		from:    make([]int32, n),
		plen:    make([]int32, n),
		cls:     make([]uint8, n),
		fromInt: make([]bool, n),
		mask:    make([]uint64, n),
		seen:    make([]bool, n),
	}
}

// chainContains reports whether AS x appears on the stored path of node
// q under the given (from, fromInt) chains: the path is the sequence of
// from-node ASes prepended along external hops. Transient cycles (the
// walk not terminating within n steps) count as containing — the
// conservative answer only delays adoption during relaxation and cannot
// occur at a fixpoint, where chains are acyclic.
func chainContains(w *world, from []int32, fromInt []bool, q int, x int32) bool {
	cur := q
	for steps := 0; steps <= w.n; steps++ {
		f := from[cur]
		if f < 0 {
			return false
		}
		if !fromInt[cur] && w.as[f] == x {
			return true
		}
		cur = int(f)
	}
	return true
}

// relax computes the converged state for the destination AS originated
// at node origin, sweeping st in place until a full sweep changes
// nothing. Returns the number of sweeps (including the final quiet one).
func (w *world) relax(st *state, origin int, maxRounds int) (int, error) {
	for i := 0; i < w.n; i++ {
		st.from[i] = FromNone
		st.plen[i] = 0
		st.cls[i] = 0
		st.fromInt[i] = false
		st.mask[i] = 0
	}
	st.from[origin] = FromSelf
	st.order = w.bfsOrder(origin, st.order, st.seen)
	rounds := 0
	for {
		rounds++
		if rounds > maxRounds {
			return rounds, fmt.Errorf("snapshot: no fixpoint for origin node %d within %d rounds", origin, maxRounds)
		}
		changed := false
		for _, rv := range st.order {
			r := int(rv)
			if r == origin {
				continue // locally originated: never displaced
			}
			// Select the best candidate over the neighbor slots in slot
			// order — bgp's decide, with candidates generated by its
			// desiredAdvert export rules.
			var bPlen int32
			var bMask uint64
			var bCls uint8
			var bInt bool
			var bFrom int32 = FromNone
			var bPeerAS, bPeerNode int32
			for _, e := range w.nbrs[r] {
				q := int(e.node)
				fq := st.from[q]
				if fq == FromNone {
					continue
				}
				if fq >= 0 {
					if int(fq) == r {
						continue // split horizon / sender-side loop detection
					}
					if st.fromInt[q] && e.internal {
						continue // IBGP-learned routes are not relayed to IBGP peers
					}
					if w.pol != nil && !e.internal && st.cls[q] != 0 && !e.expOK {
						continue // Gao–Rexford: peer/provider routes only to customers
					}
				}
				var cPlen int32
				var cMask uint64
				var cInt bool
				if e.internal {
					cPlen, cMask, cInt = st.plen[q], st.mask[q], true
				} else {
					if e.as == w.as[r] {
						continue // defensive: external link within one AS
					}
					if st.mask[q]&(1<<(uint(w.as[r])&63)) != 0 &&
						chainContains(w, st.from, st.fromInt, q, w.as[r]) {
						continue // the local AS is already on the path
					}
					cPlen, cMask, cInt = st.plen[q]+1, st.mask[q]|1<<(uint(e.as)&63), false
				}
				cCls := e.cls
				if bFrom == FromNone || betterCand(cCls, cPlen, cInt, e.as, e.node, bCls, bPlen, bInt, bPeerAS, bPeerNode) {
					bFrom, bPlen, bMask, bCls, bInt = e.node, cPlen, cMask, cCls, cInt
					bPeerAS, bPeerNode = e.as, e.node
				}
			}
			if st.from[r] != bFrom || st.plen[r] != bPlen || st.cls[r] != bCls ||
				st.fromInt[r] != bInt || st.mask[r] != bMask {
				st.from[r], st.plen[r], st.cls[r] = bFrom, bPlen, bCls
				st.fromInt[r], st.mask[r] = bInt, bMask
				changed = true
			}
		}
		if !changed {
			return rounds, nil
		}
	}
}

// betterCand is bgp's betterRoute over the relaxation encoding: class,
// then path length, then EBGP over IBGP, then lowest peer AS, then
// lowest peer node ID. Strict — the caller keeps the earliest slot on
// ties, as decide does.
func betterCand(ca uint8, la int32, ia bool, asA, nA int32,
	cb uint8, lb int32, ib bool, asB, nB int32) bool {
	if ca != cb {
		return ca < cb
	}
	if la != lb {
		return la < lb
	}
	if ia != ib {
		return !ia
	}
	if asA != asB {
		return asA < asB
	}
	return nA < nB
}

func (c Config) maxRounds(n int) int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 4*n + 16
}

// Result is a full converged-state snapshot: per (destination AS, node),
// the from-pointer and the derived path facts, in flat arrays indexed
// [asSlot·n + node]. Paths are implicit in the from-chains and
// reconstructed on demand (Path), which is also how the warm-start
// installer re-derives interned path refs.
type Result struct {
	w      *world
	ases   []int   // origin AS numbers, ascending
	asSlot []int32 // dense per AS number: slot in ases, -1 none

	from    []int32
	plen    []int32
	cls     []uint8
	fromInt []bool
	mask    []uint64

	rounds int // max sweeps over all destination ASes
}

// Compute runs the relaxation for every destination AS the topology
// originates and returns the full converged state.
func Compute(net *topology.Network, cfg Config) (*Result, error) {
	if net.NumNodes() == 0 {
		return nil, fmt.Errorf("snapshot: empty network")
	}
	w := buildWorld(net, cfg.Policy)
	var ases []int
	for as, o := range w.origin {
		if o >= 0 {
			ases = append(ases, as)
		}
	}
	res := &Result{
		w:       w,
		ases:    ases,
		asSlot:  make([]int32, w.maxAS+1),
		from:    make([]int32, len(ases)*w.n),
		plen:    make([]int32, len(ases)*w.n),
		cls:     make([]uint8, len(ases)*w.n),
		fromInt: make([]bool, len(ases)*w.n),
		mask:    make([]uint64, len(ases)*w.n),
	}
	for i := range res.asSlot {
		res.asSlot[i] = -1
	}
	st := newState(w.n)
	cap := cfg.maxRounds(w.n)
	for slot, as := range ases {
		res.asSlot[as] = int32(slot)
		rounds, err := w.relax(st, int(w.origin[as]), cap)
		if err != nil {
			return nil, err
		}
		if rounds > res.rounds {
			res.rounds = rounds
		}
		base := slot * w.n
		copy(res.from[base:base+w.n], st.from)
		copy(res.plen[base:base+w.n], st.plen)
		copy(res.cls[base:base+w.n], st.cls)
		copy(res.fromInt[base:base+w.n], st.fromInt)
		copy(res.mask[base:base+w.n], st.mask)
	}
	return res, nil
}

// Nodes returns the node count of the underlying network.
func (res *Result) Nodes() int { return res.w.n }

// ASes returns the destination AS numbers in ascending order.
func (res *Result) ASes() []int { return res.ases }

// Rounds returns the maximum relaxation sweep count over all
// destination ASes (including each destination's final quiet sweep).
func (res *Result) Rounds() int { return res.rounds }

// OriginOf returns the node originating AS as's prefixes.
func (res *Result) OriginOf(as int) (int, bool) {
	if as < 0 || as > res.w.maxAS || res.w.origin[as] < 0 {
		return 0, false
	}
	return int(res.w.origin[as]), true
}

func (res *Result) base(as int) (int, bool) {
	if as < 0 || as >= len(res.asSlot) || res.asSlot[as] < 0 {
		return 0, false
	}
	return int(res.asSlot[as]) * res.w.n, true
}

// From returns node's converged from-pointer for destination AS as:
// the neighbor node the best route was learned from, FromSelf at the
// origin, FromNone when no route exists.
func (res *Result) From(as, node int) int32 {
	base, ok := res.base(as)
	if !ok {
		return FromNone
	}
	return res.from[base+node]
}

// FromInternal reports whether node's converged route for as was
// learned over an internal (IBGP) session.
func (res *Result) FromInternal(as, node int) bool {
	base, ok := res.base(as)
	if !ok {
		return false
	}
	return res.fromInt[base+node]
}

// PathLen returns the AS-path length of node's converged route for as
// (-1 when no route; 0 at the origin and for intra-AS routes).
func (res *Result) PathLen(as, node int) int {
	base, ok := res.base(as)
	if !ok || res.from[base+node] == FromNone {
		return -1
	}
	return int(res.plen[base+node])
}

// Path reconstructs node's converged AS path for as, nearest AS first —
// the simulator's Loc-RIB representation. Returns (nil, false) when no
// route exists; the origin (and intra-AS learners) get a non-nil empty
// path.
func (res *Result) Path(as, node int) ([]int, bool) {
	base, ok := res.base(as)
	if !ok || res.from[base+node] == FromNone {
		return nil, false
	}
	out := make([]int, 0, res.plen[base+node])
	cur := node
	for {
		f := res.from[base+cur]
		if f == FromSelf {
			return out, true
		}
		if f < 0 || len(out) > res.w.n {
			return nil, false // unreachable at a fixpoint
		}
		if !res.fromInt[base+cur] {
			out = append(out, int(res.w.as[f]))
		}
		cur = int(f)
	}
}

// Advertises reports whether, at the fixpoint, node q advertises the
// as-destination to its neighbor r — i.e. whether the simulator's
// quiescent Adj-RIB-In at r holds a route from q (desiredAdvert's export
// rules; the receiver-side loop check is subsumed by the sender-side
// one). q and r must be adjacent.
func (res *Result) Advertises(as, q, r int) bool {
	base, ok := res.base(as)
	if !ok {
		return false
	}
	fq := res.from[base+q]
	if fq == FromNone {
		return false
	}
	w := res.w
	// Locate the directed edge q->r in q's sorted neighbor list.
	list := w.nbrs[q]
	i := sort.Search(len(list), func(i int) bool { return list[i].node >= int32(r) })
	if i >= len(list) || list[i].node != int32(r) {
		return false
	}
	internal := list[i].internal
	if fq >= 0 {
		if int(fq) == r {
			return false
		}
		if res.fromInt[base+q] && internal {
			return false
		}
		if w.pol != nil && !internal && res.cls[base+q] != 0 {
			rel := w.pol.Of(q, r)
			if rel != topology.RelCustomer && rel != topology.RelNone {
				return false
			}
		}
	}
	if !internal {
		if w.as[q] == w.as[r] {
			return false
		}
		if res.mask[base+q]&(1<<(uint(w.as[r])&63)) != 0 &&
			chainContains(w, res.from[base:base+w.n], res.fromInt[base:base+w.n], q, w.as[r]) {
			return false
		}
	}
	return true
}

// Summary aggregates converged-state statistics without retaining the
// per-AS arrays — the streaming form behind the 10k+-AS scale mode.
type Summary struct {
	Nodes int
	Links int
	ASes  int
	// Pairs is ASes × nodes (every potential routing-table entry);
	// Reachable counts the pairs holding a converged route.
	Pairs     int64
	Reachable int64
	// MaxRounds and MeanRounds describe the relaxation sweeps per
	// destination AS.
	MaxRounds  int
	MeanRounds float64
	// Path-length statistics over reachable pairs (external hops).
	MeanPathLen float64
	MaxPathLen  int
	// PathLenHist counts reachable pairs by path length; lengths at or
	// beyond the last bucket accumulate there.
	PathLenHist []int64
}

// histBuckets is the PathLenHist size (lengths 0..14, 15+ overflow).
const histBuckets = 16

// Stats computes converged-state statistics destination-by-destination,
// reusing one set of relaxation arrays — O(nodes) memory regardless of
// AS count, which is what lets cmd/bgpsnap report on topologies far past
// the event simulator's reach.
func Stats(net *topology.Network, cfg Config) (Summary, error) {
	if net.NumNodes() == 0 {
		return Summary{}, fmt.Errorf("snapshot: empty network")
	}
	w := buildWorld(net, cfg.Policy)
	st := newState(w.n)
	cap := cfg.maxRounds(w.n)
	sum := Summary{
		Nodes:       w.n,
		Links:       net.NumLinks(),
		PathLenHist: make([]int64, histBuckets),
	}
	var roundsTotal int64
	var plenTotal int64
	for as := 0; as <= w.maxAS; as++ {
		o := w.origin[as]
		if o < 0 {
			continue
		}
		sum.ASes++
		rounds, err := w.relax(st, int(o), cap)
		if err != nil {
			return Summary{}, err
		}
		roundsTotal += int64(rounds)
		if rounds > sum.MaxRounds {
			sum.MaxRounds = rounds
		}
		sum.Pairs += int64(w.n)
		for i := 0; i < w.n; i++ {
			if st.from[i] == FromNone {
				continue
			}
			sum.Reachable++
			l := int(st.plen[i])
			plenTotal += int64(l)
			if l > sum.MaxPathLen {
				sum.MaxPathLen = l
			}
			if l >= histBuckets {
				l = histBuckets - 1
			}
			sum.PathLenHist[l]++
		}
	}
	if sum.ASes > 0 {
		sum.MeanRounds = float64(roundsTotal) / float64(sum.ASes)
	}
	if sum.Reachable > 0 {
		sum.MeanPathLen = float64(plenTotal) / float64(sum.Reachable)
	}
	return sum, nil
}
