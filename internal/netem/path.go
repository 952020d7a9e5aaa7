package netem

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// Path is a unidirectional route through an ordered set of links, ending at
// a sink, plus a delay-only reverse channel for feedback. One transport
// subflow sends on exactly one Path.
type Path struct {
	Name  string
	eng   *sim.Engine
	links []*Link

	// extraDelay adds fixed one-way delay not attributable to any shared
	// link (e.g. last-mile latency private to this path).
	extraDelay sim.Time

	// reverseDelay is the feedback (ACK) one-way delay. If zero it defaults
	// to the sum of forward propagation delays plus extraDelay.
	reverseDelay sim.Time

	// ACK-path impairment knobs (all zero = the clean delay-only reverse
	// channel). ackDelay is a fixed asymmetric reverse-path addition on top
	// of ReverseDelay; ackJitter adds a uniform [0, ackJitter) per-feedback
	// delay with no in-order guard, so ACKs may arrive out of order;
	// ackCompress defers each feedback arrival to the next multiple of the
	// slot width, so ACKs landing inside one slot arrive back to back (ACK
	// compression/aggregation, as on half-duplex or cellular uplinks).
	ackDelay    sim.Time
	ackJitter   sim.Time
	ackCompress sim.Time

	probes *obs.Bus // nil when observability is disabled

	// free recycles Packets: a path belongs to exactly one (single-threaded)
	// engine, so a plain slice needs no locking — unlike a sync.Pool, which
	// would cost an atomic per get/put and leak packets across engines.
	free []*Packet
}

// acquire returns a zeroed packet owned by this path. Packets are allocated
// in slabs so a cold start provisions a batch per allocation and steady state
// allocates nothing.
func (p *Path) acquire() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	slab := make([]Packet, 32)
	for i := range slab {
		slab[i].owner = p
		if i > 0 {
			p.free = append(p.free, &slab[i])
		}
	}
	return &slab[0]
}

// release recycles pkt after its terminal event (delivery or drop).
func (p *Path) release(pkt *Packet) {
	if p == nil {
		return // packet built outside a path pool (tests)
	}
	*pkt = Packet{owner: p}
	p.free = append(p.free, pkt)
}

// NewPath builds a path over links on engine eng. Every link must live on
// that same engine: a path is a strictly local object (its packets and
// feedback events all schedule on eng), so a link from another engine would
// silently corrupt event ordering — it panics instead.
func NewPath(eng *sim.Engine, name string, links ...*Link) *Path {
	for _, l := range links {
		if l.eng != eng {
			panic("netem: link " + l.Name + " lives on a different engine than path " + name)
		}
	}
	return &Path{Name: name, eng: eng, links: links}
}

// Engine returns the engine the path schedules on.
func (p *Path) Engine() *sim.Engine { return p.eng }

// SetExtraDelay adds a fixed path-private one-way delay.
func (p *Path) SetExtraDelay(d sim.Time) { p.extraDelay = d }

// SetReverseDelay overrides the feedback delay; 0 restores the default
// (the sum of forward propagation delays).
func (p *Path) SetReverseDelay(d sim.Time) { p.reverseDelay = d }

// SetAckDelay adds a fixed asymmetric reverse-path delay to every feedback
// packet, on top of ReverseDelay. Unlike SetReverseDelay it models an
// impairment, so it is not reflected in ReverseDelay/BaseRTT — estimators
// observe it only through the ACKs themselves.
func (p *Path) SetAckDelay(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack delay")
	}
	p.ackDelay = d
}

// SetAckJitter adds a uniform [0, d) extra delay per feedback packet. There
// is deliberately no in-order guard on the reverse channel: jittered ACKs
// may overtake each other, as they do on impaired reverse paths.
func (p *Path) SetAckJitter(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack jitter")
	}
	p.ackJitter = d
}

// SetAckCompression batches feedback arrivals at d-spaced slot boundaries:
// an ACK whose natural arrival falls strictly inside a slot is deferred to
// the slot's end, so all ACKs of one slot arrive back to back. 0 disables.
func (p *Path) SetAckCompression(d sim.Time) {
	if d < 0 {
		panic("netem: negative ack compression slot")
	}
	p.ackCompress = d
}

// SetProbes attaches an observability bus; the path emits an ack-compress
// event for every deferred feedback packet. nil detaches.
func (p *Path) SetProbes(b *obs.Bus) { p.probes = b }

// Links returns the links composing the path.
func (p *Path) Links() []*Link { return p.links }

// PropDelay returns the total forward propagation delay (excluding queueing
// and serialization).
func (p *Path) PropDelay() sim.Time {
	d := p.extraDelay
	for _, l := range p.links {
		d += l.delay
	}
	return d
}

// ReverseDelay returns the feedback one-way delay.
func (p *Path) ReverseDelay() sim.Time {
	if p.reverseDelay > 0 {
		return p.reverseDelay
	}
	return p.PropDelay()
}

// BaseRTT returns the zero-queue round-trip time of the path.
func (p *Path) BaseRTT() sim.Time { return p.PropDelay() + p.ReverseDelay() }

// BottleneckRate returns the minimum link rate along the path in bits/s.
func (p *Path) BottleneckRate() float64 {
	if len(p.links) == 0 {
		return 0
	}
	min := p.links[0].rateBps
	for _, l := range p.links[1:] {
		if l.rateBps < min {
			min = l.rateBps
		}
	}
	return min
}

// Send injects a packet of size bytes carrying meta onto the path. sink
// receives it if it survives every link; onDrop (optional) is invoked if any
// link drops it. The path-private extra delay is applied before the first
// link. The packet is owned by the path and recycled at its terminal event,
// so neither sink nor onDrop may retain it past their return.
func (p *Path) Send(size int, meta any, sink Sink, onDrop func(*Packet, DropReason)) {
	pkt := p.acquire()
	pkt.Size = size
	pkt.SentAt = p.eng.Now()
	pkt.Meta = meta
	pkt.hops = p.links
	pkt.sink = sink
	pkt.onDrop = onDrop
	if p.extraDelay > 0 {
		p.eng.Schedule(p.eng.Now()+p.extraDelay, packetForwardEvent, pkt)
	} else {
		pkt.forward()
	}
}

// SendFeedback delivers meta to sink after the path's reverse delay. It is
// used for ACK traffic, which the emulator models as delay-only (see the
// package comment). Like Send, the delivered *Packet is recycled as soon as
// the sink returns.
func (p *Path) SendFeedback(meta any, sink Sink) {
	pkt := p.acquire()
	pkt.SentAt = p.eng.Now()
	pkt.Meta = meta
	pkt.sink = sink
	at := p.eng.Now() + p.ReverseDelay() + p.ackDelay
	if p.ackJitter > 0 {
		at += sim.Time(p.eng.Rand().Int63n(int64(p.ackJitter)))
	}
	if p.ackCompress > 0 {
		if rem := at % p.ackCompress; rem != 0 {
			wait := p.ackCompress - rem
			p.probes.AckCompress(p.eng.Now(), p.Name, wait)
			at += wait
		}
	}
	p.eng.Schedule(at, feedbackDeliverEvent, pkt)
}

// feedbackDeliverEvent fires when a feedback packet completes its delay-only
// reverse trip.
func feedbackDeliverEvent(a any) {
	pkt := a.(*Packet)
	pkt.sink.Deliver(pkt)
	pkt.owner.release(pkt)
}

// onDrop is stored on the packet so transports learn about their own losses
// immediately in tests; real senders infer loss from missing feedback.
func (pkt *Packet) forward() {
	if pkt.hop >= len(pkt.hops) {
		if pkt.sink != nil {
			pkt.sink.Deliver(pkt)
		}
		pkt.owner.release(pkt)
		return
	}
	link := pkt.hops[pkt.hop]
	pkt.hop++
	link.enqueue(pkt)
}

// RatePoint pairs a virtual time offset with a link bandwidth, for
// trace-driven links (e.g. cellular bandwidth traces).
type RatePoint struct {
	At      sim.Time
	RateBps float64
}

// ScheduleRates applies a bandwidth trace to the link: each point's rate
// takes effect at its time offset. If loop > 0 the trace repeats with that
// period indefinitely. The returned stop function cancels future changes.
func ScheduleRates(eng *sim.Engine, l *Link, points []RatePoint, loop sim.Time) (stop func()) {
	if eng != l.eng {
		panic("netem: ScheduleRates engine differs from link " + l.Name + "'s engine")
	}
	stopped := false
	var apply func(base sim.Time)
	apply = func(base sim.Time) {
		for _, p := range points {
			p := p
			eng.At(base+p.At, func() {
				if !stopped {
					l.SetRate(p.RateBps)
				}
			})
		}
		if loop > 0 {
			eng.At(base+loop, func() {
				if !stopped {
					apply(base + loop)
				}
			})
		}
	}
	apply(eng.Now())
	return func() { stopped = true }
}
