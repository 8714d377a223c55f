package des

import (
	"sort"
	"testing"
	"time"
)

// FuzzEngineOrder checks the engine against an independent reference:
// whatever is scheduled, the events fire in the order of a stable sort
// of their (at, seq) keys, where seq is the order of the Schedule* and
// ReserveSeq calls. The test counts those calls itself to key every
// event, so the reference shares no code with the queue, the fused slot
// or the sequence counter it checks; the engine's reserved numbers are
// only passed back to ScheduleRunnerAtSeq.
//
// The input bytes decode into a program of top-level operations
// (orderFuzz.op) and, for every fired event, a few nested operations run
// from its handler (orderFuzz.nested):
//
//   - schedules, via closure and Runner, with delays from same-instant
//     ties up to a minute ahead (fuzzDelay);
//   - cancellations of still-pending events;
//   - RunUntil deadlines, after which new schedules can land behind the
//     queue minimum, single Steps, and full Runs;
//   - Reset, which discards pending events, and reuse of the engine;
//   - ReserveSeq + ScheduleRunnerAtSeq, both under a key reserved while
//     the fused slot holds a later one (the demote path) and under a key
//     reserved earlier and used after other events fired.
//
// The seed corpus covers random mixed horizons, nested rescheduling,
// heavy cancellation, schedules behind a RunUntil deadline, reuse after
// Reset, and reserved sequence numbers (fuzzSeeds).
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxInput = 4 << 10
		if len(data) > maxInput {
			data = data[:maxInput]
		}
		o := &orderFuzz{t: t, e: NewEngine(), in: data}
		for o.pos < len(o.in) {
			o.op(o.next())
		}
		o.run()
	})
}

// Top-level operation codes (the byte modulo opCount). The first six
// may also run nested inside a handler.
const (
	opSchedule = iota
	opScheduleRunner
	opCancel
	opDemote
	opReserve
	opUseReserved
	opRunUntil
	opRun
	opStep
	opReset
	opCount
	nestedOps = opRunUntil
)

// fuzzKey is the reference's key for one scheduled event.
type fuzzKey struct {
	at  Time
	seq uint64
	id  int
}

func (a fuzzKey) less(b fuzzKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fuzzReserved is a sequence number drawn with ReserveSeq and not yet
// used: the engine's number, the reference's, the time it is meant for
// and how many events had fired when it was drawn.
type fuzzReserved struct {
	at       Time
	seq, key uint64
	firedN   int
}

type orderFuzz struct {
	t   *testing.T
	e   *Engine
	in  []byte
	pos int

	// The reference model of the current epoch (Reset starts a new one).
	seq      uint64         // last sequence number handed out
	keys     []fuzzKey      // by event id
	events   []*Event       // by event id, for Cancel
	canceled []bool         // by event id
	fired    []fuzzKey      // fire order observed
	isFired  []bool         // by event id
	pending  []int          // ids possibly still queued, in schedule order (see live)
	reserved []fuzzReserved // unused ReserveSeq draws
}

// next returns the next input byte, or 0 once the input is exhausted
// (so handlers run out of nested operations and the schedule drains).
func (o *orderFuzz) next() byte {
	if o.pos >= len(o.in) {
		return 0
	}
	b := o.in[o.pos]
	o.pos++
	return b
}

// fuzzDelay maps a byte to a delay. The low two bits pick the scale:
// exact ties at the current instant, milliseconds, the 0.5–2.25 s MRAI
// range, or up to a minute ahead; the high six bits pick the multiple.
func fuzzDelay(b byte) Time {
	m := Time(b >> 2)
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return m * time.Millisecond
	case 2:
		return m * 70 * time.Millisecond
	default:
		return m * time.Second
	}
}

// add records a newly scheduled event under the reference key (at, seq)
// and returns its id.
func (o *orderFuzz) add(at Time, seq uint64) int {
	id := len(o.keys)
	o.keys = append(o.keys, fuzzKey{at: at, seq: seq, id: id})
	o.events = append(o.events, nil)
	o.canceled = append(o.canceled, false)
	o.isFired = append(o.isFired, false)
	o.pending = append(o.pending, id)
	return id
}

// fuzzRunner is the Runner form of an event's handler.
type fuzzRunner struct {
	o  *orderFuzz
	id int
}

func (r fuzzRunner) Run() { r.o.fire(r.id) }

func (o *orderFuzz) schedule(delay Time, runner bool) {
	o.seq++
	id := o.add(o.e.Now()+delay, o.seq)
	if runner {
		o.events[id] = o.e.ScheduleRunner(delay, fuzzRunner{o, id})
	} else {
		o.events[id] = o.e.Schedule(delay, func() { o.fire(id) })
	}
}

// reserve draws a sequence number for an event at time at.
func (o *orderFuzz) reserve(at Time) fuzzReserved {
	o.seq++
	return fuzzReserved{at: at, seq: o.e.ReserveSeq(), key: o.seq, firedN: len(o.fired)}
}

func (o *orderFuzz) scheduleAtSeq(r fuzzReserved) {
	id := o.add(r.at, r.key)
	o.events[id] = o.e.ScheduleRunnerAtSeq(r.at, r.seq, fuzzRunner{o, id})
}

// op runs one operation. Nested operations are the first nestedOps
// codes; RunUntil, Run, Step and Reset only run at top level.
func (o *orderFuzz) op(code byte) {
	switch code % opCount {
	case opSchedule:
		o.schedule(fuzzDelay(o.next()), false)
	case opScheduleRunner:
		o.schedule(fuzzDelay(o.next()), true)
	case opCancel:
		o.cancel(int(o.next()))
	case opDemote:
		// Reserve a key at the current instant, then schedule a
		// zero-delay event, which takes the fused slot when it is free,
		// then queue under the reserved key, which sorts first.
		r := o.reserve(o.e.Now())
		o.schedule(0, false)
		o.scheduleAtSeq(r)
	case opReserve:
		o.reserved = append(o.reserved, o.reserve(o.e.Now()+fuzzDelay(o.next())))
	case opUseReserved:
		o.useReserved(int(o.next()))
	case opRunUntil:
		deadline := o.e.Now() + fuzzDelay(o.next())
		if err := o.e.RunUntil(deadline); err != nil {
			o.t.Fatal(err)
		}
		if now := o.e.Now(); now != deadline {
			o.t.Fatalf("RunUntil(%v) left the clock at %v", deadline, now)
		}
		for _, id := range o.live() {
			if o.keys[id].at <= deadline {
				o.t.Fatalf("RunUntil(%v) left event %d at %v unfired", deadline, id, o.keys[id].at)
			}
		}
	case opRun:
		o.run()
	case opStep:
		o.e.Step()
	case opReset:
		o.check(false)
		o.e.Reset()
		*o = orderFuzz{t: o.t, e: o.e, in: o.in, pos: o.pos}
	}
}

// nested runs the operations a firing handler performs: up to two,
// chosen from the codes that are legal inside a handler.
func (o *orderFuzz) nested() {
	for n := o.next() % 3; n > 0; n-- {
		o.op(o.next() % nestedOps)
	}
}

// live drops fired and canceled events from the pending list and
// returns it.
func (o *orderFuzz) live() []int {
	live := o.pending[:0]
	for _, id := range o.pending {
		if !o.isFired[id] && !o.canceled[id] {
			live = append(live, id)
		}
	}
	o.pending = live
	return live
}

// cancel cancels the i-th (mod count) event that is still pending.
func (o *orderFuzz) cancel(i int) {
	live := o.live()
	if len(live) == 0 {
		return
	}
	id := live[i%len(live)]
	o.e.Cancel(o.events[id])
	o.canceled[id] = true
}

// useReserved queues an event under the i-th (mod count) reserved key.
// The key is used only while it still sorts after every fired event:
// its time is still ahead, or it is the current instant and nothing has
// fired since it was drawn. Otherwise it is dropped unused, as a model
// drops a virtual timer that no longer applies.
func (o *orderFuzz) useReserved(i int) {
	if len(o.reserved) == 0 {
		return
	}
	i %= len(o.reserved)
	r := o.reserved[i]
	o.reserved = append(o.reserved[:i], o.reserved[i+1:]...)
	now := o.e.Now()
	if r.at > now || r.at == now && r.firedN == len(o.fired) {
		o.scheduleAtSeq(r)
	}
}

// fire is every event's handler.
func (o *orderFuzz) fire(id int) {
	k := o.keys[id]
	if o.canceled[id] {
		o.t.Fatalf("canceled event %d fired", id)
	}
	if o.isFired[id] {
		o.t.Fatalf("event %d fired twice", id)
	}
	if now := o.e.Now(); now != k.at {
		o.t.Fatalf("event %d scheduled for %v fired at %v", id, k.at, now)
	}
	o.isFired[id] = true
	o.fired = append(o.fired, k)
	o.nested()
}

// run drains the engine and checks the whole epoch.
func (o *orderFuzz) run() {
	if err := o.e.Run(); err != nil {
		o.t.Fatal(err)
	}
	o.check(true)
}

// check compares the fire order with the reference: the stable sort of
// every scheduled, uncanceled event by (at, seq). Once the engine has
// drained, the two must be equal; before that, the fired events must be
// a prefix of the reference.
func (o *orderFuzz) check(drained bool) {
	var want []fuzzKey
	for _, k := range o.keys {
		if !o.canceled[k.id] {
			want = append(want, k)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].less(want[j]) })
	if drained && len(o.fired) != len(want) {
		o.t.Fatalf("fired %d events, want %d", len(o.fired), len(want))
	}
	if len(o.fired) > len(want) {
		o.t.Fatalf("fired %d events, only %d scheduled", len(o.fired), len(want))
	}
	for i, got := range o.fired {
		if got != want[i] {
			o.t.Fatalf("fire order diverges at %d: got event %d (%v, seq %d), want event %d (%v, seq %d)",
				i, got.id, got.at, got.seq, want[i].id, want[i].at, want[i].seq)
		}
	}
}

// fuzzSeeds returns the seed corpus, one input per scenario. Each is
// built with the byte grammar above from a fixed RNG stream. The inputs
// are kept near 100 bytes: the fuzzer minimizes every new interesting
// input by re-running it once per byte it tries to drop, so with seeds of
// a few hundred bytes a 30 s -fuzztime went almost entirely to
// minimization. TestHeapPopOrderAtScale covers large queues.
func fuzzSeeds() [][]byte {
	// delayByte encodes multiple m (0..63) of scale s (fuzzDelay's low bits).
	delayByte := func(s, m int) byte { return byte(m<<2 | s) }
	var seeds [][]byte

	// Random mixed horizons: 40 events from same-instant ties to a
	// minute ahead, drained by the final Run.
	rng := NewRNG(1)
	var random []byte
	for i := 0; i < 40; i++ {
		random = append(random, byte(opSchedule+rng.Intn(2)), byte(rng.Intn(256)))
	}
	seeds = append(seeds, random)

	// Nested rescheduling: one event whose handler reschedules itself
	// 40 times with delays up to ~4.4 s, so pushes interleave with
	// pops while the clock advances.
	rng = NewRNG(42)
	nested := []byte{opSchedule, delayByte(0, 0), opRun}
	for i := 0; i < 40; i++ {
		nested = append(nested, 1, opSchedule, delayByte(2, rng.Intn(64)))
	}
	seeds = append(seeds, nested)

	// Heavy cancellation: 30 events up to a minute ahead, a third of
	// them canceled before anything fires, then stepped one by one.
	rng = NewRNG(9)
	var cancel []byte
	for i := 0; i < 30; i++ {
		cancel = append(cancel, opSchedule, delayByte(2+rng.Intn(2), rng.Intn(64)))
	}
	for i := 0; i < 10; i++ {
		cancel = append(cancel, opCancel, byte(rng.Intn(256)))
	}
	for i := 0; i < 20; i++ { // one Step per live event
		cancel = append(cancel, opStep, 0) // 0: its handler does nothing
	}
	seeds = append(seeds, cancel)

	// Behind the queue minimum: an event at 10 s, RunUntil stops the
	// clock at 0.98 s, then two tied events at 1.47 s must fire first.
	seeds = append(seeds, []byte{
		opSchedule, delayByte(3, 10),
		opRunUntil, delayByte(2, 14),
		opSchedule, delayByte(2, 7),
		opSchedule, delayByte(2, 7),
	})

	// Reset and reuse: a run out to 30 s (its one handler does nothing),
	// a Reset that also discards a pending event, then schedules near
	// the epoch again.
	seeds = append(seeds, []byte{
		opSchedule, delayByte(3, 30),
		opRun, 0,
		opSchedule, delayByte(3, 5),
		opReset,
		opSchedule, delayByte(1, 2),
		opSchedule, delayByte(1, 1),
	})

	// Reserved sequence numbers: keys reserved ahead and used after
	// other events fired, and keys used at once against an occupied
	// fused slot, at top level and from handlers.
	rng = NewRNG(7)
	var reserved []byte
	for i := 0; i < 40; i++ {
		switch rng.Intn(5) {
		case 0:
			reserved = append(reserved, opDemote)
		case 1:
			reserved = append(reserved, opReserve, byte(rng.Intn(256)))
		case 2:
			reserved = append(reserved, opUseReserved, byte(rng.Intn(256)))
		case 3:
			reserved = append(reserved, opRunUntil, delayByte(2, rng.Intn(64)))
		default:
			reserved = append(reserved, opScheduleRunner, byte(rng.Intn(256)))
		}
	}
	seeds = append(seeds, reserved)
	return seeds
}
