package bgp

import (
	"testing"
)

func TestPathHelpers(t *testing.T) {
	if !pathContains(Path{1, 2, 3}, 2) || pathContains(Path{1, 2, 3}, 4) {
		t.Error("pathContains wrong")
	}
	if !pathsEqual(Path{1, 2}, Path{1, 2}) {
		t.Error("equal paths not equal")
	}
	if pathsEqual(Path{1}, Path{1, 2}) || pathsEqual(Path{1}, Path{2}) {
		t.Error("different paths equal")
	}
	if pathsEqual(nil, Path{}) {
		t.Error("nil must differ from empty (withdrawal vs intra-AS route)")
	}
	if !pathsEqual(nil, nil) || !pathsEqual(Path{}, Path{}) {
		t.Error("identity cases failed")
	}
	p := Path{1, 2}
	c := clonePath(p)
	c[0] = 9
	if p[0] != 1 {
		t.Error("clonePath aliases")
	}
	if clonePath(nil) != nil {
		t.Error("clonePath(nil) != nil")
	}
	pre := prependPath(5, p)
	if len(pre) != 3 || pre[0] != 5 || pre[1] != 1 {
		t.Errorf("prependPath = %v", pre)
	}
	if p[0] != 1 {
		t.Error("prependPath mutated input")
	}
}

func TestUpdateIsWithdrawal(t *testing.T) {
	if !(Update{From: 1, Dest: 2}).IsWithdrawal() {
		t.Error("nil path not a withdrawal")
	}
	if (Update{From: 1, Dest: 2, Path: Path{}}).IsWithdrawal() {
		t.Error("empty path treated as withdrawal")
	}
}

// testTab returns a fresh path table for tests that build RIBs outside
// a Simulator.
func testTab() *pathTab {
	tab := &pathTab{}
	tab.reset()
	return tab
}

// ribOver builds an Adj-RIB-In whose slots follow the given peer order,
// sized for dense destination indices in [0, ndests).
func ribOver(peers []Peer, ndests int) *adjRIBIn {
	slotOf := make(map[NodeID]int, len(peers))
	for slot, p := range peers {
		slotOf[p.Node] = slot
	}
	return newAdjRIBIn(slotOf, testTab(), len(peers), ndests)
}

func TestAdjRIBInSetGetRemove(t *testing.T) {
	rib := ribOver([]Peer{{Node: 2, AS: 20}}, 8)
	if _, ok := rib.get(1, 2); ok {
		t.Error("empty RIB returned a route")
	}
	rib.set(1, 2, Path{7})
	if p, ok := rib.get(1, 2); !ok || p[0] != 7 {
		t.Error("get after set failed")
	}
	rib.set(1, 2, Path{8, 9})
	if p, _ := rib.get(1, 2); len(p) != 2 {
		t.Error("set did not replace")
	}
	if !rib.remove(1, 2) {
		t.Error("remove returned false")
	}
	if rib.remove(1, 2) {
		t.Error("double remove returned true")
	}
	if rib.slots[0].any() {
		t.Error("presence not cleared after remove")
	}
	if rib.slots[0].refs[1] != 0 {
		t.Error("stale ref retained after remove")
	}
}

func TestAdjRIBInDestsViaSlot(t *testing.T) {
	rib := ribOver([]Peer{{Node: 5}, {Node: 6}}, 40)
	rib.set(30, 5, Path{1})
	rib.set(10, 5, Path{1})
	rib.set(20, 6, Path{2})
	// Callers pass a reused scratch buffer (router.affectedScratch);
	// destsViaSlot must honor its contents and append after them.
	scratch := make([]ASN, 0, 8)
	got := rib.destsViaSlot(rib.slotOf[5], scratch[:0])
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("destsViaSlot = %v, want [10 30] sorted", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("destsViaSlot did not reuse the scratch buffer")
	}
	if got := rib.destsViaSlot(rib.slotOf[6], got[:0]); len(got) != 1 || got[0] != 20 {
		t.Errorf("destsViaSlot(6) = %v, want [20]", got)
	}
}

func TestAdjRIBInReset(t *testing.T) {
	rib := ribOver([]Peer{{Node: 1}, {Node: 2}}, 16)
	rib.set(3, 1, Path{10, 3})
	rib.set(7, 2, Path{20, 7})
	rib.reset()
	if _, ok := rib.get(3, 1); ok {
		t.Error("route survived reset")
	}
	if _, ok := rib.get(7, 2); ok {
		t.Error("route survived reset")
	}
	for slot := range rib.slots {
		for dest, ref := range rib.slots[slot].refs {
			if ref != 0 {
				t.Errorf("slot %d dest %d retained ref %d after reset", slot, dest, ref)
			}
		}
	}
	// The table must stay usable after reset.
	rib.set(3, 1, Path{10, 3})
	if p, ok := rib.get(3, 1); !ok || len(p) != 2 {
		t.Error("set/get after reset failed")
	}
}

func testPeers() []Peer {
	return []Peer{
		{Node: 1, AS: 10, Internal: false},
		{Node: 2, AS: 20, Internal: false},
		{Node: 3, AS: 5, Internal: true},
	}
}

func TestDecideShortestPathWins(t *testing.T) {
	rib := ribOver(testPeers(), 100)
	rib.set(99, 1, Path{10, 40, 99})
	rib.set(99, 2, Path{20, 99})
	e, slot, _, ok := decide2(rib, 99, testPeers(), nil, nil, nil, 0)
	if !ok {
		t.Fatal("no route")
	}
	if e.from != 2 || slot != 1 {
		t.Errorf("winner from %d slot %d, want peer 2 at slot 1 (shorter path)", e.from, slot)
	}
}

func TestDecideEBGPBeatsIBGPAtEqualLength(t *testing.T) {
	rib := ribOver(testPeers(), 100)
	rib.set(99, 3, Path{20, 99}) // internal peer
	rib.set(99, 2, Path{20, 99}) // external peer, same length
	e, _, _, ok := decide2(rib, 99, testPeers(), nil, nil, nil, 0)
	if !ok || e.from != 2 {
		t.Errorf("winner from %d, want external peer 2", e.from)
	}
	if e.fromInternal {
		t.Error("winner marked internal")
	}
}

func TestDecideTieBreaksLowestPeerAS(t *testing.T) {
	rib := ribOver(testPeers(), 100)
	rib.set(99, 1, Path{10, 99})
	rib.set(99, 2, Path{20, 99})
	e, slot, _, ok := decide2(rib, 99, testPeers(), nil, nil, nil, 0)
	if !ok || e.from != 1 || slot != 0 {
		t.Errorf("winner from %d slot %d, want peer 1 at slot 0 (AS 10 < AS 20)", e.from, slot)
	}
}

func TestDecideSkipsDeadPeers(t *testing.T) {
	rib := ribOver(testPeers(), 100)
	rib.set(99, 1, Path{10, 99})
	rib.set(99, 2, Path{20, 30, 99})
	alive := []bool{false, true, true}
	e, slot, _, ok := decide2(rib, 99, testPeers(), alive, nil, nil, 0)
	if !ok || e.from != 2 || slot != 1 {
		t.Errorf("winner from %d slot %d, want 2 at slot 1 (peer 1 dead)", e.from, slot)
	}
}

func TestDecideNoRoutes(t *testing.T) {
	rib := ribOver(testPeers(), 100)
	if _, slot, _, ok := decide2(rib, 99, testPeers(), nil, nil, nil, 0); ok || slot != -1 {
		t.Error("decision on empty RIB returned a route")
	}
	rib.set(99, 1, Path{10, 99})
	alive := []bool{false, false, false}
	if _, slot, _, ok := decide2(rib, 99, testPeers(), alive, nil, nil, 0); ok || slot != -1 {
		t.Error("decision with all peers dead returned a route")
	}
}

func TestLocEntrySameAs(t *testing.T) {
	a := locEntry{path: Path{1, 2}, from: 5}
	b := locEntry{path: Path{1, 2}, from: 5}
	if !a.sameAs(b) {
		t.Error("identical entries differ")
	}
	b.from = 6
	if a.sameAs(b) {
		t.Error("different from considered same")
	}
	c := locEntry{path: Path{1, 3}, from: 5}
	if a.sameAs(c) {
		t.Error("different path considered same")
	}
}

func TestSelfRoute(t *testing.T) {
	e := selfRoute(testTab())
	if !e.isSelf() {
		t.Error("selfRoute not self")
	}
	if e.path == nil || len(e.path) != 0 {
		t.Error("self route path must be empty, not nil")
	}
}
