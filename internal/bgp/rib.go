package bgp

import (
	"bgpsim/internal/topology"
)

// locEntry is a materialized Loc-RIB entry: the decision-process winner
// for one destination, carried through the decide/commit flow as a stack
// value. Storage is the packed locRIB below; entries are materialized on
// demand (router.locEntryAt) and share interned path slices with the
// Adj-RIB-In and in-flight updates.
type locEntry struct {
	path         Path
	ref          routeRef // interned handle for path (never 0 for a real entry)
	from         NodeID   // advertising peer; -1 for a locally originated route
	fromInternal bool
}

// pathASMask folds the ASes on p into a 64-bit Bloom mask.
func pathASMask(p Path) uint64 {
	var m uint64
	for _, as := range p {
		m |= 1 << (uint(as) & 63)
	}
	return m
}

// selfRoute is the Loc-RIB entry for a locally originated prefix.
func selfRoute(tab *pathTab) locEntry {
	return locEntry{path: tab.path(tab.emptyRef), ref: tab.emptyRef, from: -1}
}

// isSelf reports whether the entry is locally originated.
func (e locEntry) isSelf() bool { return e.from == -1 }

// sameAs reports whether two entries would produce identical
// advertisements and bookkeeping.
func (e locEntry) sameAs(o locEntry) bool {
	return e.from == o.from && e.fromInternal == o.fromInternal &&
		((e.ref != 0 && e.ref == o.ref) || pathsEqual(e.path, o.path))
}

// locRIB is the Loc-RIB in packed per-route encoding: parallel dense
// arrays of 4-byte interned path refs and 4-byte cached export refs,
// plus a presence bitset — 8 bytes and change per destination where the
// previous struct-of-slices entry took 72. The winner's peer slot is not
// stored here: router.bestSlot already records it (bestSelf for local
// routes) and is maintained on every Loc-RIB mutation, so the entry's
// provenance is derived from it on materialization.
//
// Presence must be tracked explicitly — ref 0 is a valid payload only
// for absent slots, while the interned empty path (a real locally
// originated route) has a nonzero ref.
type locRIB struct {
	refs    []routeRef // interned best path per dest; 0 in absent slots
	exports []routeRef // cached prepend(localAS, refs[dest]); 0 = not yet computed
	has     bitset
}

func newLocRIB(ndests int) locRIB {
	return locRIB{
		refs:    make([]routeRef, ndests),
		exports: make([]routeRef, ndests),
		has:     newBitset(ndests),
	}
}

// getRef returns the interned best-path ref for dest.
func (l *locRIB) getRef(dest ASN) (routeRef, bool) {
	ref := l.refs[dest]
	return ref, ref != 0
}

// set installs ref as the entry for dest, invalidating the export cache.
func (l *locRIB) set(dest ASN, ref routeRef) {
	l.refs[dest] = ref
	l.exports[dest] = 0
	l.has.set(dest)
}

// del removes the entry for dest.
func (l *locRIB) del(dest ASN) {
	l.refs[dest] = 0
	l.exports[dest] = 0
	l.has.clear(dest)
}

// reset empties the RIB in O(occupied entries).
func (l *locRIB) reset() {
	for wi, w := range l.has {
		base := wi << 6
		for w != 0 {
			i := base + trailingZeros(w)
			l.refs[i] = 0
			l.exports[i] = 0
			w &= w - 1
		}
		l.has[wi] = 0
	}
}

// refSlot is one peer's dense destination-indexed route column in the
// sparse-within-dense hybrid: the 4-byte interned ref per destination
// (0 = absent; real routes always have nonzero refs, so no separate
// presence bit is needed), allocated lazily on the first route stored —
// peers that never advertise (and advertisement columns never sent to)
// cost nothing. It backs both the per-peer Adj-RIB-In columns and the
// per-slot advertised-route bookkeeping in router.
type refSlot struct {
	refs []routeRef
}

// get returns the stored ref for dest (0 when absent).
func (s *refSlot) get(dest ASN) routeRef {
	if s.refs == nil {
		return 0
	}
	return s.refs[dest]
}

// set records ref (which must be nonzero) for dest, materializing the
// column on first use.
func (s *refSlot) set(dest ASN, ref routeRef, ndests int) {
	if s.refs == nil {
		s.refs = make([]routeRef, ndests)
	}
	s.refs[dest] = ref
}

// del removes the entry for dest, reporting whether one existed.
func (s *refSlot) del(dest ASN) bool {
	if s.refs == nil || s.refs[dest] == 0 {
		return false
	}
	s.refs[dest] = 0
	return true
}

// reset empties the column, retaining its storage.
func (s *refSlot) reset() {
	clear(s.refs)
}

// any reports whether the column holds any route.
func (s *refSlot) any() bool {
	for _, ref := range s.refs {
		if ref != 0 {
			return true
		}
	}
	return false
}

// drop releases the column (used when the dest axis is re-dimensioned);
// it re-materializes lazily at the new size.
func (s *refSlot) drop() {
	s.refs = nil
}

// adjRIBIn stores, per peer slot, the latest valid route heard from that
// peer for each destination. Paths containing the local AS are rejected
// at insertion (receiver-side loop detection), so stored routes are
// always loop-free here. Storage is a lazily materialized slot × dest
// ref array: destinations are dense small integers (dest =
// AS·PrefixesPerOrigin + i with dense AS numbering), so the dest index
// is used directly, and a slot's column exists only once the peer has
// advertised something.
type adjRIBIn struct {
	slotOf map[NodeID]int // shared with the owning router
	tab    *pathTab       // shared with the owning Simulator
	ndests int
	slots  []refSlot
}

// newAdjRIBIn returns an Adj-RIB-In for nslots peers and ndests dense
// destination indices, resolving node IDs through slotOf and paths
// through tab.
func newAdjRIBIn(slotOf map[NodeID]int, tab *pathTab, nslots, ndests int) *adjRIBIn {
	return &adjRIBIn{slotOf: slotOf, tab: tab, ndests: ndests, slots: make([]refSlot, nslots)}
}

// resize re-dimensions the dest axis, emptying the table.
func (rib *adjRIBIn) resize(ndests int) {
	rib.ndests = ndests
	for i := range rib.slots {
		rib.slots[i].drop()
	}
}

// reset empties the table, retaining materialized columns.
func (rib *adjRIBIn) reset() {
	for i := range rib.slots {
		rib.slots[i].reset()
	}
}

// setSlot records ref as the latest route for dest from the peer slot.
func (rib *adjRIBIn) setSlot(slot int, dest ASN, ref routeRef) {
	rib.slots[slot].set(dest, ref, rib.ndests)
}

// removeSlot deletes the route for dest from the peer slot, reporting
// whether one existed.
func (rib *adjRIBIn) removeSlot(slot int, dest ASN) bool {
	return rib.slots[slot].del(dest)
}

// getSlotRef returns the stored ref for (slot, dest); 0 when absent.
func (rib *adjRIBIn) getSlotRef(slot int, dest ASN) routeRef {
	return rib.slots[slot].get(dest)
}

// set records path as the latest route for dest from peer node,
// interning it. Convenience for tests; the simulator's receive path
// stores pre-interned refs via setSlot.
func (rib *adjRIBIn) set(dest ASN, from NodeID, path Path) {
	if slot, ok := rib.slotOf[from]; ok {
		rib.setSlot(slot, dest, rib.tab.intern(path))
	}
}

// remove deletes the route for dest from peer node, reporting whether one
// existed.
func (rib *adjRIBIn) remove(dest ASN, from NodeID) bool {
	slot, ok := rib.slotOf[from]
	if !ok {
		return false
	}
	return rib.removeSlot(slot, dest)
}

// get returns the stored path for (dest, from).
func (rib *adjRIBIn) get(dest ASN, from NodeID) (Path, bool) {
	slot, ok := rib.slotOf[from]
	if !ok {
		return nil, false
	}
	ref := rib.getSlotRef(slot, dest)
	return rib.tab.path(ref), ref != 0
}

// destsViaSlot appends the destinations with a route from the peer slot
// to buf in ascending (sorted) order and returns the extended slice.
func (rib *adjRIBIn) destsViaSlot(slot int, buf []ASN) []ASN {
	for dest, ref := range rib.slots[slot].refs {
		if ref != 0 {
			buf = append(buf, dest)
		}
	}
	return buf
}

// decide2 runs the decision process for dest over the candidate routes
// in the Adj-RIB-In: shortest AS path wins; ties break EBGP-over-IBGP,
// then lowest peer AS, then lowest peer node ID. Peers are scanned in
// slot order so the result is deterministic. Routes suppressed by the
// damper (nil when damping is off) are not candidates. The slot return
// identifies the winning peer slot (-1 when no route exists, mirrored by
// the false final return); router.bestSlot caches it so the incremental
// decision path can skip this scan entirely. The same pass also ranks
// the runner-up — the slot the scan would pick if the winner's route
// vanished — in the secondSlot sentinel encoding: a real slot, or
// secondNone when fewer than two eligible routes exist.
//
// The paper's simulations select routes on path length alone with no
// policy; the deterministic tie-break stands in for SSFNet's router-ID
// tie-break.
// When rel is non-nil (Gao–Rexford policy mode), routes are ranked by
// relationship class first — customer-learned over peer-learned over
// provider-learned, the standard local-pref assignment — before path
// length. self is the deciding router's node id.
func decide2(rib *adjRIBIn, dest ASN, peers []Peer, peerAlive []bool, damp *damper,
	rel *topology.Relationships, self NodeID) (locEntry, int, int16, bool) {
	best := locEntry{}
	bestPeer := Peer{}
	bestClass := 0
	bestSlot := -1
	var secEntry locEntry
	secPeer := Peer{}
	secClass := 0
	sec := -1
	found := false
	for slot, peer := range peers {
		if peerAlive != nil && !peerAlive[slot] {
			continue
		}
		ref := rib.getSlotRef(slot, dest)
		if ref == 0 {
			continue
		}
		if damp != nil && damp.isSuppressed(dest, peer.Node) {
			continue
		}
		cand := locEntry{path: rib.tab.path(ref), ref: ref, from: peer.Node, fromInternal: peer.Internal}
		class := routeClass(rel, self, peer)
		if !found || betterRoute(cand, peer, class, best, bestPeer, bestClass) {
			if found {
				secEntry, secPeer, secClass, sec = best, bestPeer, bestClass, bestSlot
			}
			best, bestPeer, bestClass, bestSlot, found = cand, peer, class, slot, true
		} else if sec < 0 || betterRoute(cand, peer, class, secEntry, secPeer, secClass) {
			secEntry, secPeer, secClass, sec = cand, peer, class, slot
		}
	}
	second := secondNone
	if sec >= 0 {
		second = int16(sec)
	}
	return best, bestSlot, second, found
}

// routeClass ranks a route by the relationship it was learned over:
// 0 customer (or internal / no policy), 1 peer, 2 provider. Lower wins.
func routeClass(rel *topology.Relationships, self NodeID, peer Peer) int {
	if rel == nil || peer.Internal {
		return 0
	}
	switch rel.Of(self, peer.Node) {
	case topology.RelPeer:
		return 1
	case topology.RelProvider:
		return 2
	default: // customer or unknown
		return 0
	}
}

// betterRoute reports whether candidate a (via peer pa, class ca) beats
// b (via pb, class cb).
func betterRoute(a locEntry, pa Peer, ca int, b locEntry, pb Peer, cb int) bool {
	if ca != cb {
		return ca < cb // local-pref: customer > peer > provider
	}
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	if a.fromInternal != b.fromInternal {
		return !a.fromInternal // EBGP preferred over IBGP
	}
	if pa.AS != pb.AS {
		return pa.AS < pb.AS
	}
	return pa.Node < pb.Node
}
