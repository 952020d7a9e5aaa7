// Package netem is a discrete-event network emulator. It models the four
// knobs the paper's Emulab/ipfw setup exposed — link bandwidth, propagation
// delay, drop-tail buffer size, and i.i.d. random loss — at packet
// granularity on a sim.Engine virtual clock, plus the fault model the
// paper's time-varying experiments never exercise: hard link outages and
// flap sequences (SetDown, FaultInjector) and Gilbert–Elliott two-state
// burst loss (SetGilbertElliott).
//
// A Path is an ordered sequence of Links ending at a Sink. Forward (data)
// packets experience serialization, queueing, random loss, and propagation
// on every link. Feedback (ACKs) travels on a delay-only reverse channel,
// which matches the common congestion-control-simulator simplification that
// the ACK path is uncongested; the paper's experiments likewise never
// bottleneck the reverse direction.
package netem

import (
	"fmt"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// Packet is the unit of transmission. Meta carries the transport layer's
// per-packet state (segment identity, send timestamp) opaquely through the
// network.
//
// Packets are pooled per Path (hence per engine): the path recycles a
// packet as soon as it reaches its terminal event — delivery to the sink or
// a drop — so sinks and drop callbacks must not retain the *Packet past
// their own return (retaining Meta is fine; the pool never touches the
// values Meta points to).
type Packet struct {
	Size   int // bytes on the wire
	SentAt sim.Time
	Meta   any

	hops     []*Link
	hop      int
	sink     Sink
	onDrop   func(*Packet, DropReason)
	owner    *Path    // pool to return to at the terminal event
	arriveAt sim.Time // propagation arrival at the current link's far end
	dup      bool     // link-created duplicate; never duplicated again
}

// Sink consumes packets at the end of a path.
type Sink interface {
	Deliver(pkt *Packet)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(pkt *Packet)

// Deliver implements Sink.
func (f SinkFunc) Deliver(pkt *Packet) { f(pkt) }

// metaRetainer and metaReleaser are optional interfaces a transport's Meta
// value may implement when it is pooled/refcounted. The emulator is the only
// component that creates additional Meta references (packet duplication) or
// destroys one invisibly to both endpoints (a drop), so it retains on clone
// and releases on drop; deliveries transfer the reference to the sink. Metas
// implementing neither interface are simply garbage-collected as before.
type metaRetainer interface{ RetainMeta() }

type metaReleaser interface{ ReleaseMeta() }

// DropReason explains why a link dropped a packet.
type DropReason int

// Drop reasons.
const (
	DropQueueFull DropReason = iota // drop-tail buffer overflow
	DropRandom                      // i.i.d. non-congestion loss
	DropOutage                      // link down (outage/flap) or stalled at zero rate
	DropBurst                       // Gilbert–Elliott bad-state burst loss
	DropPolicer                     // token-bucket policer deficit (non-queue-building)
)

func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropRandom:
		return "random"
	case DropOutage:
		return "outage"
	case DropBurst:
		return "burst"
	case DropPolicer:
		return "policer"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// LinkStats counts a link's lifetime activity.
type LinkStats struct {
	EnqueuedPackets uint64
	EnqueuedBytes   uint64
	DeliveredBytes  uint64
	DropsQueueFull  uint64
	DropsRandom     uint64
	DropsOutage     uint64
	DropsBurst      uint64
	DropsPolicer    uint64
	// Reordered counts packets dispatched early past the in-order guard;
	// Duplicated counts link-created packet copies (the copies themselves
	// also appear in EnqueuedPackets/EnqueuedBytes).
	Reordered  uint64
	Duplicated uint64
	// Outages counts up→down transitions (SetDown(true) while up, including
	// each down phase of a flap sequence).
	Outages uint64
	// PolicerPassedBytes sums the bytes the policer admitted (conformant
	// traffic only — together with DropsPolicer/PolicerDropBytes it bounds
	// the policed link's conformance envelope). PolicerDropBytes sums the
	// bytes it refused.
	PolicerPassedBytes uint64
	PolicerDropBytes   uint64
	// ShaperDelayed counts packets whose serialization start the shaper
	// pushed later than queue/transmitter availability alone would have.
	ShaperDelayed uint64
	// Handovers counts scheduled rate+delay steps applied via Handover.
	Handovers uint64
}

// Link models a unidirectional link with finite bandwidth, a drop-tail
// byte-sized buffer, fixed propagation delay, and optional i.i.d. random
// loss. All parameters may be changed while the simulation runs (used by the
// changing-network-conditions experiment, Fig. 7).
type Link struct {
	Name string

	eng *sim.Engine

	rateBps  float64  // serialization rate, bits per second
	delay    sim.Time // propagation delay
	bufBytes int      // drop-tail queue capacity, bytes (queued, not in service)
	lossProb float64  // i.i.d. drop probability in [0,1]
	jitter   sim.Time // max extra per-packet delay (uniform), non-reordering
	down     bool     // administrative/physical outage: all arrivals drop

	ge    GilbertElliott // burst-loss parameters (zero value = disabled)
	geOn  bool
	geBad bool // current Gilbert–Elliott state

	reorder       Reorder // deliberate-reordering parameters
	reorderOn     bool
	reorderPrev   float64 // previous correlated decision value
	reorderGapCnt int     // packets since the last gap-forced reorder

	dupProb float64 // per-packet duplication probability in [0,1]

	policer *TokenBucket // nonconforming packets drop (nil = off)
	shaper  *TokenBucket // nonconforming packets defer (nil = off)

	lastArrival sim.Time // monotonic delivery guard under jitter

	queuedBytes int      // bytes awaiting or in serialization
	maxQueued   int      // lifetime high-water mark of queuedBytes
	busyUntil   sim.Time // when the transmitter frees up

	stats LinkStats

	probes *obs.Bus // nil when observability is disabled

	// OnDrop, if non-nil, is invoked for every dropped packet.
	OnDrop func(pkt *Packet, reason DropReason)
}

// NewLink returns a link on engine eng. rateBps is the serialization rate in
// bits/s, delay the one-way propagation delay, and bufBytes the drop-tail
// queue capacity in bytes.
func NewLink(eng *sim.Engine, name string, rateBps float64, delay sim.Time, bufBytes int) *Link {
	if rateBps <= 0 {
		panic("netem: link rate must be positive")
	}
	if bufBytes < 0 {
		panic("netem: negative buffer")
	}
	return &Link{Name: name, eng: eng, rateBps: rateBps, delay: delay, bufBytes: bufBytes}
}

// SetRate changes the serialization rate. Packets already scheduled keep
// their departure times; new arrivals use the new rate. A zero (or negative,
// clamped to zero) rate models a stalled link: new arrivals can never
// serialize, so they are dropped with DropOutage instead of being scheduled
// with an infinite transmission time.
func (l *Link) SetRate(rateBps float64) {
	if rateBps < 0 {
		rateBps = 0
	}
	l.rateBps = rateBps
}

// SetDown raises or clears a link outage. While down the link blackholes
// every new arrival (counted as DropOutage); packets already serialized keep
// their scheduled departures, like SetRate. Each up→down transition counts
// one outage in Stats.
func (l *Link) SetDown(down bool) {
	if down != l.down {
		// The in-order delivery guard must not carry across an outage
		// boundary: a stale jittered arrival time from before the outage
		// would otherwise stretch post-revival delays arbitrarily.
		l.lastArrival = 0
	}
	if down && !l.down {
		l.stats.Outages++
	}
	l.down = down
}

// Down reports whether the link is currently in an outage.
func (l *Link) Down() bool { return l.down }

// GilbertElliott parameterizes the classic two-state burst-loss model: the
// link is in a Good or Bad state; each arriving packet first makes the state
// transition (Good→Bad with probability PGoodBad, Bad→Good with PBadGood)
// and is then dropped with the state's loss probability. Mean burst length
// is 1/PBadGood packets, stationary bad-state probability
// PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	PGoodBad float64 // per-packet transition probability Good→Bad
	PBadGood float64 // per-packet transition probability Bad→Good
	LossGood float64 // drop probability in the Good state (often 0)
	LossBad  float64 // drop probability in the Bad state (often 1)
}

// valid reports whether every probability is in [0,1].
func (ge GilbertElliott) valid() bool {
	for _, p := range []float64{ge.PGoodBad, ge.PBadGood, ge.LossGood, ge.LossBad} {
		if p < 0 || p > 1 {
			return false
		}
	}
	return true
}

// SetGilbertElliott enables the two-state burst-loss model with the given
// parameters, alongside (not replacing) the i.i.d. SetLoss process. Passing
// nil disables it and resets the state to Good.
func (l *Link) SetGilbertElliott(ge *GilbertElliott) {
	if ge == nil {
		l.geOn, l.geBad = false, false
		l.ge = GilbertElliott{}
		return
	}
	if !ge.valid() {
		panic("netem: Gilbert–Elliott probabilities out of range")
	}
	l.ge = *ge
	l.geOn = true
}

// SetDelay changes the propagation delay for subsequently forwarded packets.
func (l *Link) SetDelay(d sim.Time) { l.delay = d }

// SetBuffer changes the drop-tail capacity in bytes.
func (l *Link) SetBuffer(bytes int) { l.bufBytes = bytes }

// SetJitter sets the maximum extra per-packet delay: each packet receives
// a uniform [0, d) addition to its propagation delay. Deliveries remain in
// order (delay variation never reorders packets on the link), matching
// netem's reorder-free jitter mode.
func (l *Link) SetJitter(d sim.Time) {
	if d < 0 {
		panic("netem: negative jitter")
	}
	l.jitter = d
}

// Jitter returns the maximum extra per-packet delay.
func (l *Link) Jitter() sim.Time { return l.jitter }

// Reorder parameterizes netem-style deliberate packet reordering. A selected
// packet is dispatched early: it skips a uniform [1, cap] share of its
// propagation delay and bypasses the link's in-order delivery guard, so it
// can overtake packets still in flight (and does not move the guard itself,
// leaving later packets unaffected). Selection follows netem's model: every
// Gap-th packet (when Gap > 0) plus an independent per-packet probability
// Prob whose consecutive draws are correlated by Corr.
type Reorder struct {
	Prob     float64  // per-packet early-dispatch probability in [0,1]
	Corr     float64  // correlation of consecutive probability draws in [0,1]
	Gap      int      // every Gap-th packet reorders deterministically (0 = off)
	MaxEarly sim.Time // cap on the skipped propagation delay (0 = full delay)
}

// valid reports whether the parameters are in range.
func (r Reorder) valid() bool {
	return r.Prob >= 0 && r.Prob <= 1 && r.Corr >= 0 && r.Corr <= 1 &&
		r.Gap >= 0 && r.MaxEarly >= 0
}

// SetReorder enables deliberate reordering with the given parameters.
// Passing nil disables it and resets the decision state.
func (l *Link) SetReorder(r *Reorder) {
	if r == nil {
		l.reorderOn = false
		l.reorder = Reorder{}
		l.reorderPrev, l.reorderGapCnt = 0, 0
		return
	}
	if !r.valid() {
		panic("netem: reorder parameters out of range")
	}
	l.reorder = *r
	l.reorderOn = true
}

// ReorderSpec returns the current reorder parameters and whether reordering
// is enabled.
func (l *Link) ReorderSpec() (Reorder, bool) { return l.reorder, l.reorderOn }

// reorderDecide makes the per-packet reorder decision: a deterministic
// every-Gap-th trigger first (consuming no randomness), then the correlated
// probability draw, matching netem's reorder selection.
func (l *Link) reorderDecide() bool {
	r := &l.reorder
	if r.Gap > 0 {
		l.reorderGapCnt++
		if l.reorderGapCnt >= r.Gap {
			l.reorderGapCnt = 0
			return true
		}
	}
	if r.Prob <= 0 {
		return false
	}
	v := l.eng.Rand().Float64()
	if r.Corr > 0 {
		v = r.Corr*l.reorderPrev + (1-r.Corr)*v
	}
	l.reorderPrev = v
	return v < r.Prob
}

// SetDuplicate sets the per-packet duplication probability: a selected packet
// is cloned after the enqueue decision and the clone re-admitted right behind
// the original (it is subject to loss and drop-tail admission independently,
// but is never duplicated again). The clone carries the same Meta, so
// receivers observe a genuine duplicate delivery; its drops are invisible to
// the sender's loss accounting, as a copy the sender never sent should be.
func (l *Link) SetDuplicate(p float64) {
	if p < 0 || p > 1 {
		panic("netem: duplicate probability out of range")
	}
	l.dupProb = p
}

// DuplicateProb returns the per-packet duplication probability.
func (l *Link) DuplicateProb() float64 { return l.dupProb }

// SetLoss changes the i.i.d. random drop probability.
func (l *Link) SetLoss(p float64) {
	if p < 0 || p > 1 {
		panic("netem: loss probability out of range")
	}
	l.lossProb = p
}

// Rate returns the current serialization rate in bits/s.
func (l *Link) Rate() float64 { return l.rateBps }

// Engine returns the engine the link schedules on. exp.Run puts links of
// different interaction components on different engines, so anything that
// schedules against a link — fault injectors, handover and rate schedules,
// probes — must use the link's own engine.
func (l *Link) Engine() *sim.Engine { return l.eng }

// Delay returns the current propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// Buffer returns the drop-tail capacity in bytes.
func (l *Link) Buffer() int { return l.bufBytes }

// Loss returns the random drop probability.
func (l *Link) Loss() float64 { return l.lossProb }

// QueuedBytes returns bytes currently queued or in serialization.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// MaxQueuedBytes returns the lifetime high-water mark of QueuedBytes. It is
// updated on every enqueue (not just at sampling instants), so it bounds the
// true occupancy exactly: drop-tail admission never lets it exceed the
// configured buffer plus one in-service packet (checked by internal/simtest
// and the queue-bound regression test).
func (l *Link) MaxQueuedBytes() int { return l.maxQueued }

// SetProbes attaches an observability bus; the link emits a drop event (with
// cause) for every dropped packet. nil detaches.
func (l *Link) SetProbes(b *obs.Bus) { l.probes = b }

// QueueProbe returns an obs sampler probe reading this link's queue depth,
// for use with obs.SampleQueues.
func (l *Link) QueueProbe() obs.QueueProbe {
	return obs.QueueProbe{Link: l.Name, Depth: l.QueuedBytes}
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// BDPBytes returns the link's bandwidth-delay product in bytes at its
// current parameters.
func (l *Link) BDPBytes() int {
	return int(l.rateBps * l.delay.Seconds() / 8)
}

// enqueue admits pkt to the link, applying random loss and drop-tail
// semantics, and schedules its serialization and propagation.
func (l *Link) enqueue(pkt *Packet) {
	now := l.eng.Now()
	if l.dupProb > 0 && !pkt.dup && pkt.owner != nil &&
		l.eng.Rand().Float64() < l.dupProb {
		// Clone the packet and re-admit the copy right behind the original
		// (deferred so the original claims queue space first). The clone
		// shares Meta — the transport must dedup — but carries no onDrop:
		// losing a copy the sender never sent is not a loss signal.
		clone := pkt.owner.acquire()
		clone.Size = pkt.Size
		clone.SentAt = pkt.SentAt
		clone.Meta = pkt.Meta
		clone.hops = pkt.hops
		clone.hop = pkt.hop
		clone.sink = pkt.sink
		clone.dup = true
		if r, ok := pkt.Meta.(metaRetainer); ok {
			r.RetainMeta()
		}
		l.stats.Duplicated++
		l.probes.Duplicate(now, l.Name, clone.Size)
		defer l.enqueue(clone)
	}
	if l.down || l.rateBps <= 0 {
		// Outage (or zero-rate stall): the packet can never serialize.
		l.stats.DropsOutage++
		l.drop(pkt, DropOutage)
		return
	}
	if l.geOn {
		// Transition first, then apply the new state's loss probability, so
		// a burst's first packet already sees the Bad state.
		if l.geBad {
			if l.eng.Rand().Float64() < l.ge.PBadGood {
				l.geBad = false
			}
		} else if l.eng.Rand().Float64() < l.ge.PGoodBad {
			l.geBad = true
		}
		p := l.ge.LossGood
		if l.geBad {
			p = l.ge.LossBad
		}
		if p > 0 && l.eng.Rand().Float64() < p {
			l.stats.DropsBurst++
			l.drop(pkt, DropBurst)
			return
		}
	}
	if l.lossProb > 0 && l.eng.Rand().Float64() < l.lossProb {
		l.stats.DropsRandom++
		l.drop(pkt, DropRandom)
		return
	}
	if l.policer != nil {
		// Policing happens before drop-tail admission: a nonconforming packet
		// never touches the queue, so its loss adds zero delay anywhere — the
		// signature of the non-queue-building regime.
		if !l.policer.Conforms(now, pkt.Size) {
			l.stats.DropsPolicer++
			l.stats.PolicerDropBytes += uint64(pkt.Size)
			l.drop(pkt, DropPolicer)
			return
		}
		l.stats.PolicerPassedBytes += uint64(pkt.Size)
	}
	// The packet in service does not occupy buffer space; everything behind
	// it must fit in bufBytes.
	inService := 0
	if l.busyUntil > now {
		// Approximation: treat the head packet's residual bytes as "in
		// service". We conservatively charge the whole backlog against the
		// buffer except one MTU's worth, matching ipfw/droptail behaviour
		// closely enough for BDP-scale buffers.
		inService = pkt.Size
	}
	if l.queuedBytes-inService+pkt.Size > l.bufBytes {
		l.stats.DropsQueueFull++
		l.drop(pkt, DropQueueFull)
		return
	}
	l.stats.EnqueuedPackets++
	l.stats.EnqueuedBytes += uint64(pkt.Size)
	l.queuedBytes += pkt.Size
	if l.queuedBytes > l.maxQueued {
		l.maxQueued = l.queuedBytes
	}

	txTime := sim.FromSeconds(float64(pkt.Size) * 8 / l.rateBps)
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	if l.shaper != nil {
		// The shaper always debits the bucket; only a start pushed past both
		// arrival and transmitter availability counts as shaper-added delay.
		// Borrow times are non-decreasing per arrival order, so per-link done
		// times stay monotonic and the precomputed-arrival reasoning below
		// still holds.
		if conformAt := l.shaper.Borrow(now, pkt.Size); conformAt > start {
			l.stats.ShaperDelayed++
			l.probes.ShaperDelay(now, l.Name, pkt.Size, conformAt-start)
			start = conformAt
		}
	}
	done := start + txTime
	l.busyUntil = done
	delay := l.delay
	if l.jitter > 0 {
		delay += sim.Time(l.eng.Rand().Int63n(int64(l.jitter)))
	}
	// The arrival time can be fixed now rather than at the serialization-done
	// event: per-link done times are monotonic in enqueue order (done =
	// max(now, busyUntil)+tx), so the lastArrival in-order guard sees the same
	// predecessor state here as it would at done-time, and delay/jitter were
	// always sampled at enqueue. Precomputing lets both events run closure-free.
	arrive := done + delay
	if l.reorderOn && delay > 0 && l.reorderDecide() {
		// Early dispatch: skip a uniform share of the propagation delay and
		// bypass the in-order guard (without moving it), so this packet can
		// overtake in-flight predecessors while successors are unaffected.
		maxSkip := delay
		if l.reorder.MaxEarly > 0 && l.reorder.MaxEarly < maxSkip {
			maxSkip = l.reorder.MaxEarly
		}
		early := sim.Time(l.eng.Rand().Int63n(int64(maxSkip))) + 1
		arrive = done + delay - early
		l.stats.Reordered++
		l.probes.Reorder(now, l.Name, pkt.Size, early)
	} else {
		if arrive <= l.lastArrival {
			arrive = l.lastArrival + 1 // keep deliveries in order under jitter
		}
		l.lastArrival = arrive
	}
	pkt.arriveAt = arrive
	l.eng.Schedule(done, linkDequeueEvent, pkt)
}

// linkDequeueEvent fires when pkt finishes serializing on its current link:
// it releases the queue space and schedules the propagation arrival.
func linkDequeueEvent(a any) {
	pkt := a.(*Packet)
	l := pkt.hops[pkt.hop-1]
	l.queuedBytes -= pkt.Size
	l.stats.DeliveredBytes += uint64(pkt.Size)
	l.eng.Schedule(pkt.arriveAt, packetForwardEvent, pkt)
}

// packetForwardEvent fires when pkt reaches the far end of a link.
func packetForwardEvent(a any) { a.(*Packet).forward() }

func (l *Link) drop(pkt *Packet, reason DropReason) {
	// obs.DropCause values mirror DropReason one-to-one (asserted in tests),
	// so the cause is a cast rather than a translation table.
	l.probes.Drop(l.eng.Now(), l.Name, obs.DropCause(reason), pkt.Size)
	if l.OnDrop != nil {
		l.OnDrop(pkt, reason)
	}
	if pkt.onDrop != nil {
		pkt.onDrop(pkt, reason)
	}
	if r, ok := pkt.Meta.(metaReleaser); ok {
		r.ReleaseMeta()
	}
	pkt.owner.release(pkt)
}

// QueueingDelay returns the time a newly arriving packet would wait before
// starting serialization.
func (l *Link) QueueingDelay() sim.Time {
	now := l.eng.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}
