// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally minimal: a simulated clock, a priority queue
// of events ordered by (time, insertion sequence), and seeded random-number
// streams. Determinism is a hard requirement for the BGP experiments built
// on top — two runs with the same seed must produce byte-identical results —
// so ties between events scheduled for the same instant are broken by
// insertion order, never by map iteration or heap instability.
//
// The event queue is a calendar (bucket) queue backed by 4-ary min-heaps
// (see calendar.go), but that is invisible to callers: (timestamp,
// insertion sequence) is a strict total order over queued events, so the
// pop sequence — and therefore all simulation output — is independent of
// the queue's internal layout. Any replacement queue must preserve
// exactly this tie-break: timestamp first, then insertion order.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a simulated instant, measured as an offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Handler is the callback invoked when an event fires. It runs with the
// engine clock set to the event's timestamp.
type Handler func()

// Runner is the allocation-free counterpart to Handler. Scheduling a
// closure allocates it on the heap once per event; hot-path callers
// (message delivery, CPU-completion and flush timers in the BGP model)
// instead implement Runner on a long-lived object and schedule it with
// ScheduleRunner, so steady-state event dispatch allocates nothing.
type Runner interface {
	// Run is invoked when the event fires, with the engine clock set to
	// the event's timestamp.
	Run()
}

// ErrHorizon is returned by Run variants when the configured event horizon
// is exceeded, which almost always indicates a scheduling loop in the model.
var ErrHorizon = errors.New("des: event horizon exceeded")

// ErrCanceled is returned by Run variants when the cancellation probe
// installed with SetCancel reports true. The simulation stops between
// events: the clock and queue remain valid but the run is abandoned.
var ErrCanceled = errors.New("des: run canceled")

// Event is a scheduled callback. Events are created by Engine.Schedule and
// may be canceled before they fire.
//
// Events are pooled: once an event has fired (or its cancellation has been
// drained from the queue) the engine recycles the Event object for a future
// Schedule call. A caller must therefore drop its *Event reference no later
// than the event's own handler; calling Cancel, At, or Canceled on a
// reference retained past that point observes (or corrupts) an unrelated
// later event. The in-tree callers all clear their reference from the
// firing handler itself, or only cancel events they know are still queued.
type Event struct {
	at      Time
	seq     uint64
	index   int // heap index, -1 once popped
	fn      Handler
	runner  Runner
	stopped bool
}

// At reports the simulated time the event will fire (or would have fired,
// if canceled).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.stopped }

// Engine is a single simulation instance. An Engine is not safe for
// concurrent use; run independent simulations on independent Engines
// (one per goroutine) instead.
type Engine struct {
	now       Time
	seq       uint64
	queue     calendarQueue
	free      []*Event // recycled Event objects (see Event)
	processed uint64
	maxEvents uint64
	cancel    func() bool // polled every cancelStride events; nil = never

	// Fused same-time dispatch (see NewEngine). imm holds at most one
	// event scheduled for the current instant that provably sorts before
	// every queued event: it is the engine's next event, held outside the
	// queue. The event still receives its normal sequence stamp at alloc
	// time — fusion reserves the seq stream, it never reorders it. See
	// alloc for the admission condition. The constructors set fuse; tests
	// clear it to get the plain queued engine as a reference.
	imm  *Event
	fuse bool
}

// cancelStride is how many events fire between cancellation probes. The
// probe (typically ctx.Err) costs a lock, so it is amortized; a stride
// of 1024 bounds the post-cancel overrun to ~1k events, microseconds of
// wall clock.
const cancelStride = 1024

// DefaultMaxEvents bounds a single Run to guard against runaway scheduling
// loops in model code. It is far above anything the BGP experiments need.
const DefaultMaxEvents = 200_000_000

// NewEngine returns an engine with the clock at the epoch. The event
// queue is a calendar queue (see calendar.go); pop order is provably
// identical to NewHeapOnlyEngine's pure heap. Fused same-time dispatch
// is on: an event scheduled for the current instant while no
// earlier-or-equal event is queued is held in a one-slot fast lane and
// executed next, bypassing the queue data structure. Its (at, seq) stamp
// — and therefore the execution order of every event — is the same as
// on the plain queued path; fusion only removes the push/pop cost of the
// delivery→process chains that zero-delay configurations produce.
func NewEngine() *Engine {
	e := &Engine{maxEvents: DefaultMaxEvents, fuse: true}
	e.queue.init(false)
	return e
}

// NewHeapOnlyEngine returns an engine whose event queue is the plain
// 4-ary heap, with the calendar ring disabled. Simulation output is
// byte-identical to NewEngine — (at, seq) is a strict total order either
// way — so this exists purely as the comparison baseline for the
// calendar queue's differential tests and benchmarks.
func NewHeapOnlyEngine() *Engine {
	e := &Engine{maxEvents: DefaultMaxEvents, fuse: true}
	e.queue.init(true)
	return e
}

// SetMaxEvents overrides the runaway-loop guard. A value of zero restores
// the default.
func (e *Engine) SetMaxEvents(n uint64) {
	if n == 0 {
		n = DefaultMaxEvents
	}
	e.maxEvents = n
}

// SetCancel installs (or with nil removes) a cancellation probe. Run
// variants call it once every cancelStride fired events and stop with
// ErrCanceled when it reports true — the hook that lets a
// context.Context (Ctrl-C, coordinator shutdown) abort an in-flight
// simulation between events instead of abandoning it. The probe must be
// cheap and is called from the simulation goroutine only. Reset clears
// the probe: cancellation belongs to one run, not to the engine.
func (e *Engine) SetCancel(cancel func() bool) {
	e.cancel = cancel
}

// Reset rewinds the engine to its post-NewEngine state: the clock returns
// to the epoch, the sequence and processed counters restart at zero, and
// any still-queued events are discarded (their handlers never fire).
// Discarded and previously fired Event objects are retained on the free
// list, which is the point: a reset engine re-runs a simulation without
// re-paying event allocation. The maxEvents override is preserved.
func (e *Engine) Reset() {
	if ev := e.imm; ev != nil {
		e.imm = nil
		ev.fn, ev.runner = nil, nil
		e.recycle(ev)
	}
	for e.queue.Len() > 0 {
		ev := e.queue.Pop()
		ev.fn, ev.runner = nil, nil
		e.recycle(ev)
	}
	e.queue.rewind()
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.cancel = nil
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events scheduled but not yet fired,
// including canceled events that have not been drained.
func (e *Engine) Pending() int {
	n := e.queue.Len()
	if e.imm != nil {
		n++
	}
	return n
}

// Schedule arranges for fn to run after delay. A negative delay is treated
// as zero (fire as soon as possible, after already-queued events at the
// current instant). The returned event may be passed to Cancel.
func (e *Engine) Schedule(delay Time, fn Handler) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time at. Scheduling in the
// past panics: it is a model bug, not a recoverable condition.
func (e *Engine) ScheduleAt(at Time, fn Handler) *Event {
	if fn == nil {
		panic("des: schedule nil handler")
	}
	ev := e.alloc(at)
	ev.fn = fn
	return ev
}

// ScheduleRunner arranges for r.Run to fire after delay, like Schedule but
// without the per-event closure allocation. A negative delay is treated as
// zero.
func (e *Engine) ScheduleRunner(delay Time, r Runner) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleRunnerAt(e.now+delay, r)
}

// ScheduleRunnerAt arranges for r.Run to fire at absolute time at, like
// ScheduleAt but without the per-event closure allocation.
func (e *Engine) ScheduleRunnerAt(at Time, r Runner) *Event {
	if r == nil {
		panic("des: schedule nil runner")
	}
	ev := e.alloc(at)
	ev.runner = r
	return ev
}

// ReserveSeq draws the next sequence number without scheduling anything.
// It lets a model maintain virtual timers: a pending action records the
// (at, seq) key the event it replaces would have occupied — one draw per
// point where the eager path would have allocated a fresh event — and a
// single real event is kept at the minimum recorded key via
// ScheduleRunnerAtSeq. Because the sequence stream is consumed at
// exactly the same points either way, every event in the run (virtual
// or not) carries the same stamp as in the eager schedule.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleRunnerAtSeq queues r at absolute time at under a previously
// reserved sequence number (ReserveSeq) instead of drawing a fresh one.
// The event sorts into the queue exactly where an event allocated at
// reservation time would have. Scheduling in the past panics, as
// ScheduleAt does. The fused fast lane is bypassed — a reserved stamp is
// generally not the current maximum, so the "this event pops next" proof
// behind fusion does not apply; if the fused slot holds a later key than
// the reserved one, it is demoted to the queue to keep the pop order
// exact.
func (e *Engine) ScheduleRunnerAtSeq(at Time, seq uint64, r Runner) *Event {
	if r == nil {
		panic("des: schedule nil runner")
	}
	if at < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, e.now))
	}
	if im := e.imm; im != nil && (at < im.at || (at == im.at && seq < im.seq)) {
		e.queue.Push(im)
		e.imm = nil
	}
	ev := e.insert(at, seq)
	ev.runner = r
	return ev
}

// alloc takes an Event from the free list (or heap-allocates one), stamps
// it with (at, next sequence number), and queues it. The handler fields are
// left for the caller to fill in.
func (e *Engine) alloc(at Time) *Event {
	if at < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	seq := e.seq
	// Fused dispatch: an event at the current instant whose (at, seq) key
	// is provably the queue minimum skips the queue. Admission requires
	// the fast-lane slot to be empty and no queued event at <= at — a new
	// stamp always carries the highest seq so far, so "no queued event at
	// an earlier-or-equal time" is exactly "this event pops next". The
	// peek is conservative about canceled front events (they block
	// admission rather than being drained here).
	if e.fuse && at == e.now && e.imm == nil &&
		(e.queue.Len() == 0 || e.queue.Peek().at > at) {
		var ev *Event
		if n := len(e.free); n > 0 {
			ev = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
			*ev = Event{at: at, seq: seq}
		} else {
			ev = &Event{at: at, seq: seq}
		}
		e.imm = ev
		return ev
	}
	return e.insert(at, seq)
}

// insert queues a recycled-or-new Event stamped (at, seq). It is the common
// tail of alloc and ScheduleRunnerAtSeq, which queues a virtual timer under
// the sequence number reserved for it earlier.
func (e *Engine) insert(at Time, seq uint64) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: at, seq: seq}
	} else {
		ev = &Event{at: at, seq: seq}
	}
	e.queue.Push(ev)
	return ev
}

// recycle returns a popped event to the free list. Callers must have
// cleared fn/runner (or be handing over a canceled event, whose fields
// Cancel already cleared).
func (e *Engine) recycle(ev *Event) {
	e.free = append(e.free, ev)
}

// Cancel marks an event so it will not fire. Canceling nil or an
// already-canceled event is a no-op. Canceling an event that has already
// fired is undefined (see Event): the object may describe a different,
// still-live event by then.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.stopped = true
	ev.fn = nil
	ev.runner = nil
}

// Step fires the next event. It reports false if the queue is empty.
func (e *Engine) Step() bool {
	// The fused slot, when occupied, always holds the minimum (at, seq)
	// key (see alloc), so it fires before anything queued.
	if ev := e.imm; ev != nil {
		e.imm = nil
		if !ev.stopped {
			e.now = ev.at
			e.processed++
			fn, r := ev.fn, ev.runner
			ev.fn, ev.runner = nil, nil
			if r != nil {
				r.Run()
			} else {
				fn()
			}
			e.recycle(ev)
			return true
		}
		e.recycle(ev)
	}
	for e.queue.Len() > 0 {
		ev := e.queue.Pop()
		if ev.stopped {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.processed++
		fn, r := ev.fn, ev.runner
		ev.fn, ev.runner = nil, nil
		if r != nil {
			r.Run()
		} else {
			fn()
		}
		// Recycled only after the handler returns, so a handler can never
		// be handed its own event object for a fresh Schedule call.
		e.recycle(ev)
		return true
	}
	return false
}

// Run fires events until the queue is empty. It returns ErrHorizon if the
// event budget is exhausted first.
func (e *Engine) Run() error {
	return e.RunUntil(Time(math.MaxInt64))
}

// peekNext returns the engine's next live event — the fused slot first
// (it always holds the minimum key when occupied), then the queue front
// — draining canceled events along the way. nil when no live event is
// pending.
func (e *Engine) peekNext() *Event {
	if ev := e.imm; ev != nil {
		if !ev.stopped {
			return ev
		}
		e.imm = nil
		e.recycle(ev)
	}
	for e.queue.Len() > 0 {
		ev := e.queue.Peek()
		if ev.stopped {
			e.recycle(e.queue.Pop())
			continue
		}
		return ev
	}
	return nil
}

// RunUntil fires events with timestamps <= deadline, advancing the clock to
// at most deadline. Events beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) error {
	start := e.processed
	for {
		next := e.peekNext()
		if next == nil || next.at > deadline {
			break
		}
		if e.processed-start >= e.maxEvents {
			return ErrHorizon
		}
		if e.cancel != nil && e.processed%cancelStride == 0 && e.cancel() {
			return ErrCanceled
		}
		e.Step()
	}
	if e.now < deadline && deadline != Time(math.MaxInt64) {
		e.now = deadline
	}
	return nil
}
