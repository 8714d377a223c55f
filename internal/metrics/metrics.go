// Package metrics collects the observables the paper reports: convergence
// delay (time of the last BGP activity after a failure) and the number of
// update messages generated, plus per-router load statistics used by the
// dynamic-MRAI analysis.
package metrics

import "time"

// Collector accumulates counters for one simulation run. Counters are
// attributed to the measurement window that starts at WindowStart; calls
// before the window opens update totals but not the windowed counters.
// The BGP simulator opens the window at failure-injection time so Phase 1
// (initial route propagation) is excluded, matching the paper.
type Collector struct {
	windowOpen  bool
	windowStart time.Duration

	// Windowed counters (post-failure, the paper's metrics).
	Announcements int
	Withdrawals   int // withdrawal messages sent in the window
	Packets       int // flush operations carrying >= 1 route
	Processed     int // updates consumed from inboxes in the window
	Discarded     int // stale updates deleted unprocessed by batching
	lastActivity  time.Duration

	// Totals across the whole run (including initial convergence).
	TotalMessages  int
	TotalProcessed int // updates consumed from inboxes over the whole run

	// Load statistics. MaxQueueLen is windowed like the counters above —
	// OpenWindow resets it so the post-failure load statistic the
	// dynamic-MRAI analysis reads is not contaminated by Phase-1
	// (initial convergence) queue buildup. TotalMaxQueueLen keeps the
	// whole-run high-water mark.
	MaxQueueLen      int
	TotalMaxQueueLen int // whole-run inbox-length high-water mark
	perNodeSent      []int
	routeChanges     int
}

// NewCollector returns a collector for n routers.
func NewCollector(n int) *Collector {
	return &Collector{perNodeSent: make([]int, n)}
}

// Reset returns the collector to its post-NewCollector state (all
// counters zero, window closed), retaining the per-node array so
// simulator reuse across trials allocates nothing here.
func (c *Collector) Reset() {
	per := c.perNodeSent
	for i := range per {
		per[i] = 0
	}
	*c = Collector{perNodeSent: per}
}

// OpenWindow starts the measurement window at now (failure time).
// Windowed counters reset.
func (c *Collector) OpenWindow(now time.Duration) {
	c.windowOpen = true
	c.windowStart = now
	c.lastActivity = now
	c.Announcements, c.Withdrawals, c.Packets = 0, 0, 0
	c.Processed, c.Discarded = 0, 0
	c.routeChanges = 0
	c.MaxQueueLen = 0
	for i := range c.perNodeSent {
		c.perNodeSent[i] = 0
	}
}

// WindowStart returns the window's opening time.
func (c *Collector) WindowStart() time.Duration { return c.windowStart }

// NoteSend records one route-level message (announcement or withdrawal)
// sent by node at the given time.
func (c *Collector) NoteSend(now time.Duration, node int, withdrawal bool) {
	c.TotalMessages++
	if !c.windowOpen {
		return
	}
	if withdrawal {
		c.Withdrawals++
	} else {
		c.Announcements++
	}
	if node >= 0 && node < len(c.perNodeSent) {
		c.perNodeSent[node]++
	}
	c.touch(now)
}

// NotePacket records one flush operation that carried at least one route.
func (c *Collector) NotePacket(now time.Duration) {
	if c.windowOpen {
		c.Packets++
		c.touch(now)
	}
}

// NoteProcessed records completion of processing for n update messages.
func (c *Collector) NoteProcessed(now time.Duration, n int) {
	c.TotalProcessed += n
	if c.windowOpen {
		c.Processed += n
		c.touch(now)
	}
}

// NoteDiscarded records n stale messages deleted without processing.
func (c *Collector) NoteDiscarded(n int) {
	if c.windowOpen {
		c.Discarded += n
	}
}

// NoteRouteChange records a Loc-RIB change.
func (c *Collector) NoteRouteChange(now time.Duration) {
	if c.windowOpen {
		c.routeChanges++
		c.touch(now)
	}
}

// NoteQueueLen tracks the maximum observed input-queue length, both
// within the current measurement window and across the whole run.
func (c *Collector) NoteQueueLen(n int) {
	if n > c.TotalMaxQueueLen {
		c.TotalMaxQueueLen = n
	}
	if n > c.MaxQueueLen {
		c.MaxQueueLen = n
	}
}

func (c *Collector) touch(now time.Duration) {
	if now > c.lastActivity {
		c.lastActivity = now
	}
}

// Messages returns the windowed total of route-level messages.
func (c *Collector) Messages() int { return c.Announcements + c.Withdrawals }

// RouteChanges returns the windowed Loc-RIB change count.
func (c *Collector) RouteChanges() int { return c.routeChanges }

// ConvergenceDelay returns the time from window start to the last observed
// BGP activity. Zero means the failure caused no BGP activity at all.
func (c *Collector) ConvergenceDelay() time.Duration {
	if !c.windowOpen {
		return 0
	}
	return c.lastActivity - c.windowStart
}

// LastActivity returns the absolute time of the last activity in window.
func (c *Collector) LastActivity() time.Duration { return c.lastActivity }

// PerNodeSent returns a copy of the windowed per-node send counts.
func (c *Collector) PerNodeSent() []int {
	out := make([]int, len(c.perNodeSent))
	copy(out, c.perNodeSent)
	return out
}
