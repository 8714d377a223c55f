package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, interval (offsets from
// the recorder's origin) and the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes call the same code. Safe for
// concurrent use: the churn service records spans from the client, the
// worker and the HTTP handlers at once.
type spanRecorder struct {
	origin time.Time
	mu     sync.Mutex
	list   []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span under parent and returns its id (-1 when r is nil).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.list = append(r.list, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(r.list) - 1
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.list[id].End = now
	r.mu.Unlock()
}

// spans returns a copy of the recorded spans.
func (r *spanRecorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.list...)
}

// writeJSON writes the spans to path.
func (r *spanRecorder) writeJSON(path string) error {
	b, err := json.Marshal(r.spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each closed span's self time: its
// duration minus the part of its interval that its children cover.
// Overlapping children (concurrent work under one parent) are counted
// once; child time outside the parent's interval is ignored. With root
// set, only spans in trees whose root span has that name count.
func selfTimes(list []span, root string) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range list {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rootName := func(id int) string {
		for list[id].Parent >= 0 {
			id = list[id].Parent
		}
		return list[id].Name
	}
	out := make(map[string]time.Duration)
	for id, s := range list {
		if s.End < 0 || (root != "" && rootName(id) != root) {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s, children[id])
	}
	return out
}

// covered returns the length of the union of the kids' intervals,
// clipped to parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
