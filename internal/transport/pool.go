package transport

import "mpcc/internal/sim"

// Engine-lifetime object pools. Every connection on one (single-threaded)
// engine draws its packet records, segments, ACK batches and MI rtt-sample
// buffers from the same free lists, so plain slices need no locking and a
// short session starts from objects its predecessors warmed. A connection
// resolves the engine's pools once, at construction, and keeps the pointer.
// Objects are allocated in slabs: a cold start provisions a batch per
// allocation and steady state allocates nothing (guarded by the alloc
// regression tests).
//
// Reference-counting rules:
//
// pktRec — created by transmit with three references: the outstanding slot
// (released when advanceHead passes the record), the network packet carrying
// it as Meta (netem releases it on a drop via ReleaseMeta and retains an
// extra one per duplication clone via RetainMeta; a delivery transfers it to
// the receiver's ACK pipeline, which releases it after senderAck processed
// the record), and the pending RTO timer (released when the timer fires or
// is successfully stopped). A record may therefore outlive its loss
// declaration — exactly what Eifel-style spurious-retransmit repair needs.
//
// segment — one reference per queue membership (pending/retx/orphans) plus
// one per pktRec pointing at it. Queue pops transfer the reference to the
// caller (usually straight into a new pktRec); lazily filtered delivered
// segments (nextSegment, migrateFrom, adoptOrphans) release theirs.
//
// Each connection still counts the records and segments it holds outside
// the free lists (PoolInUse); the churn drain audit asserts those gauges
// return to zero after teardown.

const poolSlab = 64

type pools struct {
	recs    []*pktRec
	segs    []*segment
	batches []*ackBatch
	flts    [][]float64

	recsMade, segsMade int // provisioned so far (the drain audit's totals)
}

type poolsKey struct{}

func poolsOf(eng *sim.Engine) *pools {
	return eng.Local(poolsKey{}, func() any { return new(pools) }).(*pools)
}

func (c *Connection) acquireRec() *pktRec {
	c.live.recs++
	p := c.pool
	if n := len(p.recs); n > 0 {
		rec := p.recs[n-1]
		p.recs[n-1] = nil
		p.recs = p.recs[:n-1]
		return rec
	}
	slab := make([]pktRec, poolSlab)
	p.recsMade += len(slab)
	for i := 1; i < len(slab); i++ {
		p.recs = append(p.recs, &slab[i])
	}
	return &slab[0]
}

// releaseRec drops one reference; the last one recycles the record and
// releases its segment reference.
func (c *Connection) releaseRec(rec *pktRec) {
	rec.refs--
	if rec.refs > 0 {
		return
	}
	if rec.refs < 0 {
		panic("transport: pktRec over-released")
	}
	seg := rec.seg
	*rec = pktRec{}
	c.live.recs--
	c.pool.recs = append(c.pool.recs, rec)
	c.releaseSeg(seg)
}

// RetainMeta and ReleaseMeta let netem adjust the reference count for
// link-level events the endpoints cannot see: a duplication clone sharing
// this record as Meta, and a drop destroying a reference.
func (rec *pktRec) RetainMeta() { rec.refs++ }

func (rec *pktRec) ReleaseMeta() { rec.sf.conn.releaseRec(rec) }

func (c *Connection) acquireSeg(off int64, size int) *segment {
	p := c.pool
	var seg *segment
	if n := len(p.segs); n > 0 {
		seg = p.segs[n-1]
		p.segs[n-1] = nil
		p.segs = p.segs[:n-1]
	} else {
		slab := make([]segment, poolSlab)
		p.segsMade += len(slab)
		for i := 1; i < len(slab); i++ {
			p.segs = append(p.segs, &slab[i])
		}
		seg = &slab[0]
	}
	seg.off, seg.size, seg.refs = off, size, 1
	c.live.segs++
	return seg
}

// releaseSeg drops one reference; the last one recycles the segment.
func (c *Connection) releaseSeg(seg *segment) {
	if seg == nil {
		return
	}
	seg.refs--
	if seg.refs > 0 {
		return
	}
	if seg.refs < 0 {
		panic("transport: segment over-released")
	}
	*seg = segment{}
	c.live.segs--
	c.pool.segs = append(c.pool.segs, seg)
}

// ackBatch carries acknowledged records from the receiver back to the
// sender as a single feedback packet's Meta. A pooled pointer goes through
// the `any` interface without allocating, unlike the slice header it wraps.
// Each entry holds the network reference its data packet's delivery
// transferred to the ACK pipeline; senderAck releases them after the batch
// is processed.
type ackBatch struct {
	recs []*pktRec
}

// newAckBatch returns a recycled (or fresh) batch seeded with rec.
func (s *Subflow) newAckBatch(rec *pktRec) *ackBatch {
	p := s.conn.pool
	if n := len(p.batches); n > 0 {
		b := p.batches[n-1]
		p.batches[n-1] = nil
		p.batches = p.batches[:n-1]
		b.recs = append(b.recs, rec)
		return b
	}
	return &ackBatch{recs: append(make([]*pktRec, 0, 4), rec)}
}

// popFlt returns a recycled float buffer (length 0) for MI rtt samples, or
// nil — a fresh MI then grows its own, which joins the pool when finalized.
func (s *Subflow) popFlt() []float64 {
	p := s.conn.pool
	if n := len(p.flts); n > 0 {
		f := p.flts[n-1]
		p.flts[n-1] = nil
		p.flts = p.flts[:n-1]
		return f
	}
	return nil
}

func (s *Subflow) pushFlt(f []float64) {
	if cap(f) > 0 {
		s.conn.pool.flts = append(s.conn.pool.flts, f[:0])
	}
}

// recycleBatch releases every record's network reference and returns the
// batch to the pool.
func (s *Subflow) recycleBatch(b *ackBatch) {
	for i, rec := range b.recs {
		b.recs[i] = nil
		s.conn.releaseRec(rec)
	}
	b.recs = b.recs[:0]
	s.conn.pool.batches = append(s.conn.pool.batches, b)
}
