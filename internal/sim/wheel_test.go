package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// ---- reference implementation ----
//
// refQueue is the obviously-correct timer queue the timing wheel is checked
// against: a container/heap ordered by (at, seq) with eager removal. It
// shares no code with the engine's wheel/4-ary-heap hybrid.

type refEntry struct {
	at  Time
	seq uint64
	id  int
	pos int
}

type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	e.pos = -1
	return e
}

type refQueue struct {
	h   refHeap
	seq uint64
	now Time
	ids map[int]*refEntry
	max int // high-water mark of len(h), the engine's MaxPending
}

func newRefQueue() *refQueue { return &refQueue{ids: map[int]*refEntry{}} }

func (q *refQueue) schedule(at Time, id int) {
	q.seq++
	e := &refEntry{at: at, seq: q.seq, id: id}
	heap.Push(&q.h, e)
	q.ids[id] = e
	q.max = max(q.max, len(q.h))
}

// cancel removes id if still pending and reports whether it was.
func (q *refQueue) cancel(id int) bool {
	e, ok := q.ids[id]
	if !ok || e.pos < 0 {
		return false
	}
	heap.Remove(&q.h, e.pos)
	return true
}

// popDue pops every entry due at or before horizon, in (at, seq) order.
func (q *refQueue) popDue(horizon Time) []int {
	var out []int
	for len(q.h) > 0 && q.h[0].at <= horizon {
		e := heap.Pop(&q.h).(*refEntry)
		q.now = e.at
		out = append(out, e.id)
	}
	return out
}

// popOne pops the minimum entry, mirroring a single engine fire.
func (q *refQueue) popOne() (int, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	e := heap.Pop(&q.h).(*refEntry)
	q.now = e.at
	return e.id, true
}

// ---- op scripts ----
//
// A script is a deterministic sequence of rounds applied identically to a
// sim.Engine and to the reference queue. Offsets are chosen to straddle
// every queue regime: the current slot (due heap), near slots (wheel), the
// slot boundary, the full span boundary, and far-future overflow (far heap).

type op struct {
	schedOffsets []Time // schedule one timer per offset (relative to now)
	cancels      []int  // ids to cancel before running
	runFor       Time   // horizon advance after scheduling/cancelling
	spawnEvery   int    // every n-th scheduled timer spawns a child on fire
	spawnOffset  Time
	cancelOnFire map[int]int // timer id -> id it cancels from its callback
}

// interestingOffsets are offsets that probe wheel geometry edges.
var interestingOffsets = []Time{
	0, 1, 2,
	Time(1) << wheelShift,       // exactly one slot
	(Time(1) << wheelShift) - 1, // just inside the current slot
	(Time(1) << wheelShift) + 1,
	Time(wheelSlots/2) << wheelShift, // mid-span
	Time(wheelSlots-1) << wheelShift, // last wheel slot
	Time(wheelSlots) << wheelShift,   // first overflow slot
	(Time(wheelSlots) << wheelShift) + 12345,
	3 * Time(wheelSlots) << wheelShift, // deep overflow
	// Just past the span: a far timer whose slot a later, shorter offset
	// lands behind once the frontier moves, so the far head comes before
	// the first occupied wheel slot (or shares it).
	Time(wheelSlots+1) << wheelShift,
	(Time(wheelSlots+2) << wheelShift) + 7,
	Millisecond, 10 * Millisecond, 200 * Millisecond, Second,
}

func randomOffset(rng *rand.Rand) Time {
	switch rng.Intn(4) {
	case 0:
		return interestingOffsets[rng.Intn(len(interestingOffsets))]
	case 1:
		return Time(rng.Int63n(int64(4 * Millisecond))) // dense near-term
	case 2:
		return Time(rng.Int63n(int64(600 * Millisecond))) // spans the wheel
	default:
		return Time(rng.Int63n(int64(3 * Second))) // mostly overflow
	}
}

// runScript drives both implementations in lockstep: every engine fire must
// match the reference heap's minimum (at, seq) entry, so cancels and spawns
// issued from inside callbacks see an identical pending set on both sides.
func runScript(t *testing.T, ops []op) {
	t.Helper()
	eng := NewEngine(7)
	ref := newRefQueue()

	nextID := 0
	handles := map[int]TimerRef{}
	spawned := map[int][2]int{} // parent id -> {child id, cancel target}

	var schedule func(at Time, id int)
	schedule = func(at Time, id int) {
		ref.schedule(at, id)
		handles[id] = eng.ScheduleRef(at, func(a any) {
			i := a.(int)
			want, ok := ref.popOne()
			if !ok {
				t.Fatalf("engine fired id %d but reference is empty", i)
			}
			if want != i {
				t.Fatalf("pop order diverges: engine fired id %d, reference expects id %d", i, want)
			}
			if sp, hit := spawned[i]; hit {
				if sp[0] >= 0 {
					// Schedule a child from inside the callback; both sides
					// see it at the same (now, seq) point because fires are
					// verified in lockstep.
					schedule(eng.Now()+13*Microsecond, sp[0])
				}
				if sp[1] >= 0 {
					got := handles[sp[1]].Stop()
					exp := ref.cancel(sp[1])
					if got != exp {
						t.Fatalf("cancel-on-fire of %d: engine %v, reference %v", sp[1], got, exp)
					}
				}
			}
		}, id)
	}

	for _, o := range ops {
		base := eng.Now()
		for i, off := range o.schedOffsets {
			id := nextID
			nextID++
			spawnChild, cancelTarget := -1, -1
			if o.spawnEvery > 0 && i%o.spawnEvery == 0 {
				spawnChild = nextID
				nextID++
			}
			if c, ok := o.cancelOnFire[id]; ok {
				cancelTarget = c
			}
			if spawnChild >= 0 || cancelTarget >= 0 {
				spawned[id] = [2]int{spawnChild, cancelTarget}
			}
			schedule(base+off, id)
		}
		for _, id := range o.cancels {
			got := handles[id].Stop()
			want := ref.cancel(id)
			if got != want {
				t.Fatalf("cancel %d: engine Stop=%v, reference=%v", id, got, want)
			}
		}
		horizon := base + o.runFor
		eng.Run(horizon)
		if len(ref.h) > 0 && ref.h[0].at <= horizon {
			t.Fatalf("engine stopped at horizon %d but reference still has id %d due at %d",
				horizon, ref.h[0].id, ref.h[0].at)
		}
		if eng.Pending() != len(ref.h) || eng.MaxPending() != ref.max {
			t.Fatalf("Pending/MaxPending = %d/%d, reference %d/%d",
				eng.Pending(), eng.MaxPending(), len(ref.h), ref.max)
		}
	}
	// Drain: whatever survives must still agree, in order.
	eng.Run(0)
	if len(ref.h) != 0 {
		t.Fatalf("engine drained but reference still holds %d entries", len(ref.h))
	}
}

// TestWheelMatchesReferenceHeap is the differential property test: under
// randomized schedule/cancel/reschedule interleavings spanning every wheel
// regime, the engine must pop the exact (at, seq) sequence a reference heap
// pops. 60 seeds × 30 rounds ≈ 50k timers per run.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []op
		id := 0
		for r := 0; r < 30; r++ {
			n := 1 + rng.Intn(40)
			o := op{
				runFor:       Time(rng.Int63n(int64(700 * Millisecond))),
				cancelOnFire: map[int]int{},
			}
			for i := 0; i < n; i++ {
				o.schedOffsets = append(o.schedOffsets, randomOffset(rng))
			}
			if rng.Intn(3) == 0 {
				o.spawnEvery = 1 + rng.Intn(5)
			}
			// Cancel a random selection of everything scheduled so far,
			// including long-fired ids (Stop must be a stale no-op) and
			// double-cancels.
			hi := id + n
			for i := 0; i < rng.Intn(20); i++ {
				o.cancels = append(o.cancels, rng.Intn(hi+1)%max(hi, 1))
			}
			// Occasionally have a firing timer cancel a pending sibling.
			if n > 2 && rng.Intn(2) == 0 {
				o.cancelOnFire[id+rng.Intn(n)] = id + rng.Intn(n)
			}
			id = hi
			ops = append(ops, op{})
			ops[len(ops)-1] = o
		}
		runScript(t, ops)
	}
}

// TestWheelFrontierFastForward covers the idle-jump path: a single
// far-future timer with an empty wheel must fast-forward the frontier, and
// near-term timers scheduled afterwards must still order correctly.
func TestWheelFrontierFastForward(t *testing.T) {
	runScript(t, []op{
		{schedOffsets: []Time{5 * Second}, runFor: 5 * Second},
		{schedOffsets: []Time{Microsecond, 100 * Millisecond, 2, 0}, runFor: Second},
		{schedOffsets: []Time{10 * Second, 3, 3, 3}, runFor: 20 * Second},
	})
}

// TestFarHeapScripts runs the lockstep check on scripts that only the
// due/far split can get wrong: a far timer whose slot the frontier reaches
// while the wheel still holds later timers, wheel and far timers sharing a
// slot (tied and interleaved at), far timers cancelled before and after the
// frontier reaches them, and Run horizons that put a drained timer back
// while far timers are still pending.
func TestFarHeapScripts(t *testing.T) {
	slot := Time(1) << wheelShift
	span := Time(wheelSlots) << wheelShift
	// In the first two scripts the 20-slot timer keeps the wheel non-empty
	// (the first Run stops with it drained and put back), so the frontier
	// does not simply jump to the far head over an empty wheel.
	runScript(t, []op{
		// far head (span+5 slots) first; the later wheel timer lands behind it
		{schedOffsets: []Time{span + 5*slot, 10 * slot, 20 * slot}, runFor: 10 * slot},
		{schedOffsets: []Time{span - 2*slot, span - 2*slot + 3}, runFor: span},
	})
	runScript(t, []op{
		// tied at across the heaps: the far timer has the lower seq
		{schedOffsets: []Time{span + 5*slot + 100, span + 5*slot + 150, 10 * slot, 20 * slot}, runFor: 10 * slot},
		{schedOffsets: []Time{span - 5*slot + 100, span - 5*slot + 50, span - 5*slot + 100}, runFor: 2 * span},
	})
	runScript(t, []op{
		// cancel far timers: one never reached, one after the frontier
		// passed other far timers
		{schedOffsets: []Time{span + slot, 2 * span, 3 * span, span + slot}, cancels: []int{1}, runFor: span + 2*slot},
		{schedOffsets: []Time{Millisecond}, cancels: []int{2, 2}, runFor: 4 * span},
	})
	runScript(t, []op{
		// horizons that stop inside drained slots while far timers wait
		{schedOffsets: []Time{2 * span, 3 * span, 2*span + 1, Millisecond}, runFor: 2*span - 1},
		{schedOffsets: []Time{0, 1, span}, runFor: 1},
		{schedOffsets: []Time{span + 3}, runFor: span / 2},
		{schedOffsets: []Time{5 * span}, runFor: 10 * span},
	})
}

// recorder returns a Schedule callback that appends its string argument to
// *got.
func recorder(got *[]string) func(any) {
	return func(a any) { *got = append(*got, a.(string)) }
}

func wantOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestStopFarTimer stops timers resident in the far heap — its head, an
// inner entry, and an At-created one — and checks eager removal and order.
func TestStopFarTimer(t *testing.T) {
	span := Time(wheelSlots) << wheelShift
	e := NewEngine(1)
	var got []string
	rec := recorder(&got)
	a := e.ScheduleRef(span+5, rec, "a")
	b := e.ScheduleRef(2*span, rec, "b")
	e.ScheduleRef(span+7, rec, "c")
	d := e.At(3*span, func() { got = append(got, "d") })
	for _, r := range []TimerRef{a, b} {
		if !r.t.far || r.t.index < 0 {
			t.Fatalf("timer at %v not in the far heap", r.t.at)
		}
	}
	if len(e.far) != 4 || e.Pending() != 4 {
		t.Fatalf("far heap %d, Pending %d; want 4, 4", len(e.far), e.Pending())
	}
	if !a.Stop() || !b.Stop() || !d.Stop() {
		t.Fatal("Stop on a pending far timer returned false")
	}
	if a.Stop() || d.Stop() {
		t.Fatal("second Stop returned true")
	}
	if len(e.far) != 1 || e.Pending() != 1 {
		t.Fatalf("far heap %d, Pending %d after Stop; want 1, 1", len(e.far), e.Pending())
	}
	e.Run(0)
	wantOrder(t, got, "c")
}

// TestFrontierJumpsToFarHead puts the far head's slot before the first
// occupied wheel slot: advance must move the frontier to the far slot and
// leave the wheel timer where it is.
func TestFrontierJumpsToFarHead(t *testing.T) {
	slot := Time(1) << wheelShift
	e := NewEngine(1)
	var got []string
	rec := recorder(&got)
	e.ScheduleRef((wheelSlots+5)*slot, rec, "far")
	e.ScheduleRef(10*slot, rec, "near")
	e.Step() // not Run, whose horizon check would pop (and drain) past it
	if e.frontier != 10 {
		t.Fatalf("frontier %d, want 10", e.frontier)
	}
	w := e.ScheduleRef((wheelSlots+8)*slot, rec, "wheel")
	if w.t.index != timerInWheel {
		t.Fatal("later timer is not wheel-resident")
	}
	e.Step()
	if e.frontier != wheelSlots+5 || e.wheelCount != 1 {
		t.Fatalf("after far pop: frontier %d wheelCount %d, want %d 1", e.frontier, e.wheelCount, wheelSlots+5)
	}
	e.Run(0)
	wantOrder(t, got, "near", "far", "wheel")
}

// TestFarAndWheelShareSlot drains one slot from both structures: the
// merged order follows (at, seq) whichever structure a timer came from.
func TestFarAndWheelShareSlot(t *testing.T) {
	slot := Time(1) << wheelShift
	at := (wheelSlots+5)*slot + 100
	e := NewEngine(1)
	var got []string
	rec := recorder(&got)
	e.ScheduleRef(at, rec, "far-tied")
	e.ScheduleRef(at+50, rec, "far-late")
	e.ScheduleRef(10*slot, rec, "near")
	e.Step()
	w1 := e.ScheduleRef(at, rec, "wheel-tied")
	w2 := e.ScheduleRef(at-50, rec, "wheel-early")
	if w1.t.index != timerInWheel || w2.t.index != timerInWheel || len(e.far) != 2 {
		t.Fatal("setup did not split the slot across wheel and far heap")
	}
	e.Run(0)
	wantOrder(t, got, "near", "wheel-early", "far-tied", "wheel-tied", "far-late")
}

// TestRunHorizonPutBackWithFarPending stops Run between a drained far slot
// and its timer's at: the put-back keeps the timer, the remaining far
// timers and the counts intact, and later near timers still order first.
func TestRunHorizonPutBackWithFarPending(t *testing.T) {
	span := Time(wheelSlots) << wheelShift
	e := NewEngine(1)
	var got []string
	rec := recorder(&got)
	e.ScheduleRef(2*span+1000, rec, "far1")
	e.ScheduleRef(3*span, rec, "far2")
	e.ScheduleRef(Millisecond, rec, "near")
	e.Run(2*span + 500) // drains far1's slot, then puts far1 back
	if e.Now() != 2*span+500 || e.Pending() != 2 || e.MaxPending() != 3 {
		t.Fatalf("now %v Pending %d MaxPending %d, want %v 2 3", e.Now(), e.Pending(), e.MaxPending(), 2*span+500)
	}
	if e.frontier != int64((2*span+1000)>>wheelShift) || len(e.due) != 1 || len(e.far) != 1 {
		t.Fatalf("frontier %d due %d far %d: far1's slot was not drained", e.frontier, len(e.due), len(e.far))
	}
	e.ScheduleRef(e.Now()+1, rec, "near2")
	e.ScheduleRef(e.Now()+span/2, rec, "mid")
	if e.Pending() != 4 || e.MaxPending() != 4 {
		t.Fatalf("Pending %d MaxPending %d, want 4 4", e.Pending(), e.MaxPending())
	}
	e.Run(0)
	wantOrder(t, got, "near", "near2", "far1", "mid", "far2")
}

// TestPendingCountsFarTimers checks that Pending and MaxPending count the
// far heap alongside the wheel and the due heap.
func TestPendingCountsFarTimers(t *testing.T) {
	span := Time(wheelSlots) << wheelShift
	e := NewEngine(1)
	noop := func(any) {}
	for i := 1; i <= 3; i++ {
		e.Schedule(Time(i)*span, noop, nil) // far
	}
	e.Schedule(Millisecond, noop, nil) // wheel
	e.Schedule(0, noop, nil)           // due
	if len(e.far) != 3 || e.wheelCount != 1 || len(e.due) != 1 {
		t.Fatalf("far %d wheel %d due %d, want 3 1 1", len(e.far), e.wheelCount, len(e.due))
	}
	if e.Pending() != 5 || e.MaxPending() != 5 {
		t.Fatalf("Pending %d MaxPending %d, want 5 5", e.Pending(), e.MaxPending())
	}
	e.Run(span + 1)
	if e.Pending() != 2 || e.MaxPending() != 5 {
		t.Fatalf("Pending %d MaxPending %d after run, want 2 5", e.Pending(), e.MaxPending())
	}
}

// farHeapFuzzSeed encodes, in FuzzTimingWheel's byte language, a far timer
// (574 ms) and a chain of ~66 ms wheel timers re-armed every ~42 ms of run
// horizon, so the wheel never empties: the frontier reaches the far timer's
// slot while the wheel already holds the next chain timer behind it.
// cancelAt >= 0 also stops the far timer after that many chain links.
func farHeapFuzzSeed(cancelAt int) []byte {
	b := []byte{0, 14}
	for i := 0; i < 15; i++ {
		if i == cancelAt {
			b = append(b, 1, 0)
		}
		b = append(b, 0, 251)
		for j := 0; j < 10; j++ {
			b = append(b, 2, 255)
		}
	}
	return b
}

// FuzzTimingWheel feeds arbitrary byte strings as op scripts to the same
// differential check, so the fuzzer can search for wheel-geometry edge
// cases the random tests miss. Each byte pair encodes one action.
func FuzzTimingWheel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x10, 0xff, 0x80, 0x40, 0x03, 0x07})
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x55, 0xaa})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90})
	f.Add(farHeapFuzzSeed(-1))
	f.Add(farHeapFuzzSeed(8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		eng := NewEngine(3)
		ref := newRefQueue()
		var fired, want []int
		handles := map[int]TimerRef{}
		id := 0
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			switch a % 3 {
			case 0: // schedule: b picks an offset class
				off := Time(b) << (uint(b%3) * 9) // 0..255, ..130k, ..66M ns
				if b%7 == 0 {
					off = Time(b) * 41 * Millisecond // up to ~10s: overflow
				}
				at := eng.Now() + off
				ref.schedule(at, id)
				idc := id
				handles[id] = eng.ScheduleRef(at, func(any) { fired = append(fired, idc) }, nil)
				id++
			case 1: // cancel id b (mod scheduled)
				if id > 0 {
					c := int(b) % id
					got := handles[c].Stop()
					exp := ref.cancel(c)
					if got != exp {
						t.Fatalf("cancel %d: engine %v reference %v", c, got, exp)
					}
				}
			case 2: // run forward by a b-scaled amount (strictly positive:
				// Run(0) means drain-all, which the reference doesn't mirror)
				h := eng.Now() + Time(b)*(Time(1)<<(wheelShift-2)) + 1
				fired = fired[:0]
				eng.Run(h)
				want = ref.popDue(h)
				if len(fired) != len(want) {
					t.Fatalf("fired %d want %d", len(fired), len(want))
				}
				for j := range want {
					if fired[j] != want[j] {
						t.Fatalf("order diverges at %d: %d vs %d", j, fired[j], want[j])
					}
				}
			}
		}
		fired = fired[:0]
		eng.Run(0)
		want = ref.popDue(Time(1) << 62)
		if len(fired) != len(want) {
			t.Fatalf("drain: fired %d want %d", len(fired), len(want))
		}
		for j := range want {
			if fired[j] != want[j] {
				t.Fatalf("drain order diverges at %d: %d vs %d", j, fired[j], want[j])
			}
		}
	})
}
