// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer queue, and a seeded random source.
//
// An experiment runs one Engine per interaction component of its topology.
// The engine is intentionally single-threaded: events execute one at a time
// in (time, insertion-order) order, which makes every run bit-reproducible
// for a given seed. Distinct engines share no state, so the components of
// one simulation (Group) and independent simulations (exp.RunParallel) may
// run concurrently.
//
// The event core is allocation-conscious and built for timer churn: the
// queue is a single-level hashed timing wheel (O(1) insert and cancel for
// timers within ~half a second, which covers RTO, pacing, delayed-ACK and
// monitor-interval timers) backed by an inlined monomorphic 4-ary heap that
// holds the overflow — timers in the slot currently being drained and
// far-future timers beyond the wheel span. The wheel never changes execution
// order: every due timer passes through the heap before firing, so pops
// follow the exact (at, seq) total order the heap alone would produce
// (property-tested against a reference heap in wheel_test.go). Timers
// created by Schedule and ScheduleRef recycle through a slab-backed
// per-engine free list. See DESIGN.md "Performance architecture".
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so that
// durations convert losslessly.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a sim.Time offset.
func FromDuration(d time.Duration) Time { return Time(d) }

// FromSeconds converts seconds to virtual time, rounding to nanoseconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string { return time.Duration(t).String() }

// Timing-wheel geometry. Slots are 2^wheelShift nanoseconds (≈65.5 µs) so
// the slot of a timestamp is a shift, not a division; wheelSlots of them
// span ≈537 ms, which covers every high-churn timer class the transport
// arms (pacer ticks, delayed ACKs, RACK rechecks, monitor intervals, and
// un-backed-off RTOs). Timers beyond the span overflow to the heap, which
// restores them in order without any cascading because pops always compare
// the heap head against the wheel frontier.
const (
	wheelShift = 16
	wheelSlots = 8192 // power of two
	wheelMask  = wheelSlots - 1
)

// Timer is a handle to a scheduled callback. It may be stopped before it
// fires; stopping an already-fired or already-stopped timer is a no-op.
//
// Exactly one of fn (a closure, scheduled via At/After) or afn+arg (a
// closure-free callback, scheduled via Schedule/ScheduleRef) is set
// while the timer is pending. Timers created by Schedule and ScheduleRef are
// pooled: they recycle through the engine free list the moment they fire or
// are stopped, with a generation counter (see TimerRef) keeping stale
// handles harmless. Timers returned by At/After are never recycled —
// callers may hold the bare *Timer arbitrarily long after firing and a
// stale Stop must remain a harmless no-op, which a reused Timer could not
// guarantee.
type Timer struct {
	at  Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
	eng *Engine

	// Queue position: index >= 0 is the heap slot; timerIdle (-1) means not
	// queued; timerInWheel (-2) means linked into the wheel slot derived
	// from at. Wheel slots are doubly-linked intrusive lists through
	// next/prev so cancellation unlinks in O(1).
	index   int32
	next    *Timer
	prev    *Timer
	gen     uint64 // incremented every time a pooled timer is recycled
	stopped bool
	pooled  bool // owned by the engine free list (Schedule/ScheduleRef)
}

const (
	timerIdle    = -1
	timerInWheel = -2
)

// At reports the virtual time the timer is scheduled to fire.
func (t *Timer) At() Time { return t.at }

// Stop cancels the timer and reports whether it was still pending. A
// pending timer is removed from its queue immediately — O(1) for
// wheel-resident timers, O(log n) for heap-resident ones — so long-lived
// simulations that cancel many timers (retransmission and pacing timers
// cancel on every ACK) do not accumulate dead entries.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	if t.fn == nil && t.afn == nil {
		return false // already fired
	}
	t.stopped = true
	t.eng.dequeue(t)
	t.fn, t.afn, t.arg = nil, nil, nil
	if t.pooled {
		t.eng.release(t)
	}
	return true
}

// Stopped reports whether Stop was called before the timer fired.
func (t *Timer) Stopped() bool { return t.stopped }

// TimerRef is a cheap, copyable handle to a pooled cancellable timer
// created by ScheduleRef. The zero value is inert. Unlike a bare *Timer, a
// TimerRef remains safe to Stop after the timer fired and its Timer was
// recycled into a new role: the generation counter detects staleness, so a
// stale Stop is a no-op exactly like a stale Stop on an At-created timer.
type TimerRef struct {
	t   *Timer
	gen uint64
}

// Stop cancels the referenced timer if this handle's incarnation is still
// pending, reporting whether it was. Stale handles (fired, already stopped,
// or recycled) return false and touch nothing.
func (r TimerRef) Stop() bool {
	if r.t == nil || r.t.gen != r.gen {
		return false
	}
	return r.t.Stop()
}

// Pending reports whether this handle's incarnation is still scheduled.
func (r TimerRef) Pending() bool {
	return r.t != nil && r.t.gen == r.gen
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// heap holds the overflow: timers due in the slot currently being
	// drained plus far-future timers beyond the wheel span. It is an
	// inlined monomorphic 4-ary min-heap ordered by (at, seq).
	heap []*Timer

	// wheel is the single-level hashed timing wheel: slot i holds an
	// unordered doubly-linked list of timers with at>>wheelShift ≡ i
	// (mod wheelSlots), strictly after the frontier and within one span.
	// occ is its occupancy bitmap, wheelCount the total resident timers,
	// and frontier the absolute slot index up to which slots have been
	// drained into the heap.
	wheel      []*Timer
	occ        []uint64
	wheelCount int
	frontier   int64

	free     []*Timer // recycled Schedule/ScheduleRef timers
	rng      *rand.Rand
	stopped  bool
	maxQueue int
	// Processed counts executed events, for diagnostics and benchmarks.
	Processed uint64
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)),
		wheel: make([]*Timer, wheelSlots),
		occ:   make([]uint64, wheelSlots/64),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ---- timing wheel + 4-ary overflow heap, ordered by (at, seq) ----
//
// Pop order is the total order (at, seq): a timer is only ever popped from
// the heap, and the heap always receives every timer of a slot before the
// first pop past that slot's frontier. The wheel's internal arrangement —
// and in particular O(1) cancellations — cannot affect execution order.

func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// enqueue routes a freshly scheduled timer to the wheel when its slot is
// strictly after the frontier and within one span, and to the heap
// otherwise (imminent or far-future).
func (e *Engine) enqueue(t *Timer) {
	if n := len(e.heap) + e.wheelCount + 1; n > e.maxQueue {
		e.maxQueue = n
	}
	slot := int64(t.at >> wheelShift)
	if slot <= e.frontier || slot >= e.frontier+wheelSlots {
		e.push(t)
		return
	}
	idx := slot & wheelMask
	head := e.wheel[idx]
	t.index = timerInWheel
	t.prev = nil
	t.next = head
	if head != nil {
		head.prev = t
	}
	e.wheel[idx] = t
	e.occ[idx>>6] |= 1 << (uint(idx) & 63)
	e.wheelCount++
}

// dequeue removes a pending timer from whichever structure holds it.
func (e *Engine) dequeue(t *Timer) {
	switch {
	case t.index >= 0:
		e.removeAt(int(t.index))
	case t.index == timerInWheel:
		e.unlink(t)
	}
}

// unlink removes t from its wheel slot in O(1).
func (e *Engine) unlink(t *Timer) {
	idx := int64(t.at>>wheelShift) & wheelMask
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		e.wheel[idx] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	if e.wheel[idx] == nil {
		e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	t.next, t.prev = nil, nil
	t.index = timerIdle
	e.wheelCount--
}

// advance moves the frontier to the next occupied wheel slot and drains it
// into the heap, where (at, seq) ordering is restored. Empty slots are
// skipped in bulk via the occupancy bitmap.
func (e *Engine) advance() {
	next := e.nextOccupied()
	e.frontier = next
	idx := next & wheelMask
	t := e.wheel[idx]
	e.wheel[idx] = nil
	e.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	for t != nil {
		n := t.next
		t.next, t.prev = nil, nil
		e.wheelCount--
		e.push(t)
		t = n
	}
}

// nextOccupied scans the occupancy bitmap for the first occupied slot
// strictly after the frontier. The caller guarantees wheelCount > 0.
func (e *Engine) nextOccupied() int64 {
	start := e.frontier + 1
	for off := int64(0); off < wheelSlots; {
		idx := (start + off) & wheelMask
		word := e.occ[idx>>6]
		bit := uint(idx) & 63
		if w := word >> bit; w != 0 {
			return start + off + int64(bits.TrailingZeros64(w))
		}
		off += int64(64 - bit)
	}
	panic("sim: wheel occupancy bitmap inconsistent with wheelCount")
}

// nextTimer removes and returns the globally earliest pending timer, or nil
// when no timers remain. Heap timers in slots at or before the frontier
// beat every wheel timer (which all sit strictly after the frontier), so
// the pop respects the (at, seq) total order.
func (e *Engine) nextTimer() *Timer {
	for {
		if len(e.heap) > 0 {
			slot := int64(e.heap[0].at >> wheelShift)
			if e.wheelCount == 0 {
				// Nothing to drain: fast-forward the frontier so newly
				// scheduled near-term timers use the wheel again.
				if slot > e.frontier {
					e.frontier = slot
				}
				return e.popMin()
			}
			if slot <= e.frontier {
				return e.popMin()
			}
		} else if e.wheelCount == 0 {
			return nil
		}
		e.advance()
	}
}

func (e *Engine) push(t *Timer) {
	t.index = int32(len(e.heap))
	e.heap = append(e.heap, t)
	e.siftUp(len(e.heap) - 1)
}

// popMin removes and returns the earliest heap timer.
func (e *Engine) popMin() *Timer {
	h := e.heap
	t := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
	t.index = timerIdle
	return t
}

// removeAt deletes the timer at heap position i (used by eager Stop).
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	e.heap = h[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
	t.index = timerIdle
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	t := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !timerLess(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = t
	t.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	t := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h[j], h[min]) {
				min = j
			}
		}
		if !timerLess(h[min], t) {
			break
		}
		h[i] = h[min]
		h[i].index = int32(i)
		i = min
	}
	h[i] = t
	t.index = int32(i)
}

// ---- scheduling ----

func (e *Engine) checkFuture(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a simulation component.
func (e *Engine) At(at Time, fn func()) *Timer {
	e.checkFuture(at)
	e.seq++
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e, index: timerIdle}
	e.enqueue(t)
	return t
}

// grabPooled returns a free-list timer (allocating a slab when empty),
// initialized for (at, afn, arg) at the next sequence number.
func (e *Engine) grabPooled(at Time, afn func(any), arg any) *Timer {
	e.seq++
	var t *Timer
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.at, t.seq, t.afn, t.arg, t.stopped = at, e.seq, afn, arg, false
	} else {
		// Slab growth: one allocation provisions a batch of timers, so
		// steady state allocates nothing and cold start allocates rarely.
		slab := make([]Timer, 64)
		for i := range slab {
			slab[i].eng = e
			slab[i].index = timerIdle
			slab[i].pooled = true
			if i > 0 {
				e.free = append(e.free, &slab[i])
			}
		}
		t = &slab[0]
		t.at, t.seq, t.afn, t.arg = at, e.seq, afn, arg
	}
	return t
}

// Schedule posts afn(arg) at absolute virtual time at with no cancellation
// handle. The backing Timer comes from (and returns to) the engine free
// list, so steady-state anonymous events — packet serialization, delivery,
// feedback — allocate nothing.
func (e *Engine) Schedule(at Time, afn func(any), arg any) {
	e.checkFuture(at)
	e.enqueue(e.grabPooled(at, afn, arg))
}

// ScheduleRef schedules afn(arg) at absolute virtual time at and returns a
// generation-checked cancellable handle. The backing Timer is pooled like
// Schedule's: it recycles the moment it fires or is stopped, and the
// TimerRef's generation makes any stale handle a harmless no-op. Hot
// cancel-heavy paths (retransmission, pacing, delayed-ACK and
// monitor-interval timers) use it to schedule without allocating.
func (e *Engine) ScheduleRef(at Time, afn func(any), arg any) TimerRef {
	e.checkFuture(at)
	t := e.grabPooled(at, afn, arg)
	e.enqueue(t)
	return TimerRef{t: t, gen: t.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Timer { return e.At(e.now+d, fn) }

// release returns a fired or stopped pooled timer to the free list,
// retiring its generation so stale TimerRefs cannot touch it.
func (e *Engine) release(t *Timer) {
	t.afn, t.arg = nil, nil
	t.gen++
	e.free = append(e.free, t)
}

// Stop halts Run after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// fire executes t's callback (t is already off the queue) and recycles
// pooled timers.
func (e *Engine) fire(t *Timer) {
	e.now = t.at
	e.Processed++
	if t.fn != nil {
		fn := t.fn
		t.fn = nil
		fn()
		return
	}
	afn, arg := t.afn, t.arg
	t.afn, t.arg = nil, nil
	if t.pooled {
		// Release before the callback runs: the callback may immediately
		// re-arm a timer and reuse this very Timer for it, which is safe —
		// the generation bump in release has already invalidated old refs.
		e.release(t)
	}
	afn(arg)
}

// Run executes events in order until the queue is empty, the horizon is
// reached, or Stop is called. The clock is left at the time of the last
// executed event, or at horizon if the horizon was reached with events still
// pending. A horizon of 0 means "run until idle".
func (e *Engine) Run(horizon Time) {
	e.stopped = false
	for !e.stopped {
		next := e.nextTimer()
		if next == nil {
			break
		}
		if horizon > 0 && next.at > horizon {
			// Not due within the horizon: put it back (cheap — it lands in
			// the heap or wheel according to the unchanged frontier).
			e.enqueue(next)
			e.now = horizon
			return
		}
		e.fire(next)
	}
	if horizon > 0 && e.now < horizon && len(e.heap) == 0 && e.wheelCount == 0 {
		e.now = horizon
	}
}

// Step executes the single next pending event, if any, and reports whether
// one was executed.
func (e *Engine) Step() bool {
	next := e.nextTimer()
	if next == nil {
		return false
	}
	e.fire(next)
	return true
}

// Pending returns the number of queued timers. Stopped timers are removed
// from the queue eagerly, so they are never counted.
func (e *Engine) Pending() int { return len(e.heap) + e.wheelCount }

// MaxPending returns the high-water mark of queued timers over the engine's
// lifetime — a proxy for how much simultaneous in-flight state a scenario
// builds up, surfaced as a gauge by the experiment harness.
func (e *Engine) MaxPending() int { return e.maxQueue }
