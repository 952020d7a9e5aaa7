package transport

import (
	"testing"

	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/netem"
	"mpcc/internal/sim"
)

// TestChurnSessionAllocs is the machine-independent guard on churn's
// per-session cost: sequential sessions, each on fresh paths of one warmed
// engine, open, transfer a 300-packet file over two MPCC subflows, close
// from the completion callback, and drain. Once the engine's pools are warm
// a session allocates only its own objects (connection, subflows,
// controllers, paths, metric series and per-session queues), never packets,
// records, segments, ACK batches or timers; and after every drain each
// provisioned packet, record and segment is back on the engine free lists.
func TestChurnSessionAllocs(t *testing.T) {
	tn := newTestNet(81, 2)
	sessions := 0
	session := func() {
		c := newMPCCConn(tn, "s", ccmpcc.LossParams(), tn.path(0), tn.path(1))
		c.SetApp(NewFile(300*DefaultMSS), func(sim.Time) { c.Close() })
		c.Start(tn.eng.Now())
		tn.eng.Run(tn.eng.Now() + 2*sim.Second)
		if c.CloseCause() != CloseDone {
			t.Fatalf("session %d: cause %v, want done", sessions, c.CloseCause())
		}
		drained(t, c, "after the session drained")
		sessions++
	}
	for i := 0; i < 5; i++ {
		session() // warm the engine pools
	}
	avg := testing.AllocsPerRun(20, session)
	t.Logf("%.0f allocations per session", avg)
	// Measured 126 (372 with per-path and per-connection free lists). Going
	// back to per-path packet lists alone reads 146, to per-connection
	// record, segment, batch and buffer lists 320.
	const budget = 135
	if avg > budget {
		t.Fatalf("a warm session allocates %.0f times, want <= %d", avg, budget)
	}

	if p := tn.eng.Pending(); p != 0 {
		t.Fatalf("%d timers still pending after the last session drained", p)
	}
	if inUse, made := netem.PooledPackets(tn.eng); inUse != 0 || made == 0 {
		t.Fatalf("packets: %d of %d provisioned still out", inUse, made)
	}
	p := poolsOf(tn.eng)
	if len(p.recs) != p.recsMade || len(p.segs) != p.segsMade || p.recsMade == 0 {
		t.Fatalf("records %d/%d and segments %d/%d back on the free lists",
			len(p.recs), p.recsMade, len(p.segs), p.segsMade)
	}
}
