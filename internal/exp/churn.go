package exp

import (
	"fmt"
	"math/rand"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
	"mpcc/internal/workload"
)

// ServerSpec declares one accept point of a churn workload: where its
// sessions run and what resources it will admit.
type ServerSpec struct {
	Name  string
	Paths [][]string // subflow paths (link names) for sessions on this server
	// MaxConns and BudgetBytes are the server's admission limits
	// (transport.NewServer; ≤ 0 disables a limit).
	MaxConns    int
	BudgetBytes int64
	// PerConnRcvBuf is each admitted connection's receive buffer, charged
	// against BudgetBytes and applied via transport.WithRcvBuf.
	PerConnRcvBuf int64
}

// ChurnSpec declares an open-loop session workload over a run: sessions
// arrive by a stochastic process, transfer a sampled object through a
// freshly opened connection, and close. Being open-loop, arrivals do not
// slow down when the network saturates — overload must be absorbed by
// admission control and client retry, which is the point of the churn
// experiments. Run places all servers' paths in one interaction component
// and drives the workload on that component's engine; arrivals, sizes and
// backoff come from generators seeded off Spec.Seed, never from the engine
// RNG.
type ChurnSpec struct {
	Servers []ServerSpec

	// RatePerSec (with optional Shape) selects a Poisson arrival process;
	// a non-empty States selects MMPP instead (RatePerSec is then ignored).
	RatePerSec float64
	Shape      workload.Shape
	States     []workload.MMPPState

	// Sizes samples per-session object bytes.
	Sizes workload.BoundedPareto

	Proto Protocol

	// Rejected clients retry with capped exponential backoff; a session is
	// abandoned after MaxRetries rejected attempts (0 = give up immediately).
	MaxRetries int
	RetryBase  sim.Time
	RetryCap   sim.Time

	// Per-session connection watchdogs (0 disables).
	HandshakeTimeout sim.Time
	IdleTimeout      sim.Time

	// StartAt delays the first arrival.
	StartAt sim.Time

	// DrainCheckAfter, when positive, audits a session's pool gauges this
	// long after it closes (in-flight packets need a drain window before
	// every pooled buffer is home); failures count in ChurnStats.Leaks.
	DrainCheckAfter sim.Time
}

// ServerChurnStats is one server's admission ledger after a churn run.
type ServerChurnStats struct {
	Name        string
	Accepted    uint64
	Rejected    uint64
	PeakActive  int
	PeakBytes   int64
	BudgetBytes int64
	MaxConns    int
}

// ChurnStats summarizes a churn workload after the run. The session ledger
// balances: Accepted == Completed + Aborted + Active, and
// Arrivals == Accepted + Abandoned + (retries still pending at the horizon;
// rejected attempts that found a later slot count under Accepted).
type ChurnStats struct {
	Arrivals  int // sessions whose first attempt happened
	Accepted  int // sessions admitted (after any retries)
	Rejected  int // admission attempts shed (counts every rejected attempt)
	Retried   int // retry attempts scheduled after a rejection
	Abandoned int // sessions that exhausted MaxRetries (or the horizon)
	Completed int // sessions that delivered their object and closed clean
	Aborted   int // sessions closed by abort/idle/handshake paths
	Active    int // sessions still open when the run ended

	LeakChecks int // post-close pool audits performed
	Leaks      int // audits that found pooled buffers still out

	PeakActive     int   // high-water concurrent sessions across all servers
	CompletedBytes int64 // object bytes of completed sessions

	// FCT is the completed-session flow-completion-time distribution in
	// seconds (admission to clean close).
	FCT obs.HistogramStats

	Servers []ServerChurnStats
}

// churnDriver runs one ChurnSpec on one engine. All its state is touched
// only from engine callbacks, so it needs no locking.
type churnDriver struct {
	eng     *sim.Engine
	spec    *ChurnSpec
	net     *topo.Net
	bus     *obs.Bus
	proto   Protocol
	horizon sim.Time

	rng     *rand.Rand // server choice + backoff jitter
	arr     workload.Arrivals
	backoff workload.Backoff
	servers []*transport.Server

	nextID int
	active int
	fct    *obs.Histogram
	stats  ChurnStats
}

// startChurn validates the spec, builds the servers and generators, and
// schedules the first arrival. Call before eng.Run.
func startChurn(eng *sim.Engine, s *Spec, net *topo.Net, bus *obs.Bus) *churnDriver {
	cs := s.Churn
	if len(cs.Servers) == 0 {
		panic("exp: ChurnSpec needs at least one server")
	}
	if len(cs.States) == 0 && cs.RatePerSec <= 0 {
		panic("exp: ChurnSpec needs RatePerSec > 0 or MMPP States")
	}
	d := &churnDriver{
		eng: eng, spec: cs, net: net, bus: bus, proto: cs.Proto,
		horizon: s.Duration,
		rng:     rand.New(rand.NewSource(s.Seed ^ 0x636875726e)), // "churn"
		backoff: workload.Backoff{Base: cs.RetryBase, Cap: cs.RetryCap},
		fct:     &obs.Histogram{},
	}
	if len(cs.States) > 0 {
		d.arr = workload.NewMMPP(s.Seed+1, cs.States, cs.Shape)
	} else {
		d.arr = workload.NewPoisson(s.Seed+1, cs.RatePerSec, cs.Shape)
	}
	for _, sv := range cs.Servers {
		d.servers = append(d.servers, transport.NewServer(sv.Name, sv.MaxConns, sv.BudgetBytes))
	}
	d.chain(cs.StartAt)
	return d
}

// chain schedules the next arrival after now, stopping at the horizon.
func (d *churnDriver) chain(now sim.Time) {
	next := d.arr.Next(now)
	if next >= d.horizon {
		return
	}
	d.eng.At(next, d.arrive)
}

func (d *churnDriver) arrive() {
	now := d.eng.Now()
	d.stats.Arrivals++
	id := d.nextID
	d.nextID++
	k := d.rng.Intn(len(d.servers))
	size := int64(d.spec.Sizes.Sample(d.rng))
	d.attempt(fmt.Sprintf("sess%d", id), k, size, 0)
	d.chain(now)
}

// attempt is one admission try (attempt 0 is the arrival itself).
func (d *churnDriver) attempt(name string, k int, size int64, attempt int) {
	now := d.eng.Now()
	sv := d.servers[k]
	spec := &d.spec.Servers[k]
	if res := sv.Admit(spec.PerConnRcvBuf); res != transport.AdmitOK {
		d.stats.Rejected++
		d.bus.SessionReject(now, name, sv.Name, res.String(), attempt+1)
		if attempt >= d.spec.MaxRetries {
			d.stats.Abandoned++
			return
		}
		delay := d.backoff.Delay(d.rng, attempt)
		if now+delay >= d.horizon {
			// The retry would never fire; count the session as given up so
			// the ledger still balances at the horizon.
			d.stats.Abandoned++
			return
		}
		d.stats.Retried++
		d.bus.SessionRetry(now, name, delay, attempt+1)
		next := attempt + 1
		d.eng.At(now+delay, func() { d.attempt(name, k, size, next) })
		return
	}
	d.stats.Accepted++
	d.active++
	if d.active > d.stats.PeakActive {
		d.stats.PeakActive = d.active
	}
	d.bus.SessionOpen(now, name, sv.Name, size, d.active)

	ps := buildPaths(d.net, spec.Paths)
	if d.bus != nil {
		for _, p := range ps {
			p.SetProbes(d.bus)
		}
	}
	connOpts := []transport.ConnOption{transport.WithRcvBuf(spec.PerConnRcvBuf)}
	if d.spec.HandshakeTimeout > 0 {
		connOpts = append(connOpts, transport.WithHandshakeTimeout(d.spec.HandshakeTimeout))
	}
	if d.spec.IdleTimeout > 0 {
		connOpts = append(connOpts, transport.WithIdleTimeout(d.spec.IdleTimeout))
	}
	conn := Attach(d.eng, name, d.proto, ps, AttachOptions{ConnOptions: connOpts, Probes: d.bus})
	start := now
	conn.SetApp(transport.NewFile(size), func(sim.Time) { conn.Close() })
	conn.SetOnClose(func(r transport.CloseReason, at sim.Time) {
		d.closed(conn, sv, spec, name, r, at, start, size)
	})
	conn.Start(now)
}

func (d *churnDriver) closed(conn *transport.Connection, sv *transport.Server,
	spec *ServerSpec, name string, r transport.CloseReason, at, start sim.Time, size int64) {
	d.active--
	sv.Release(spec.PerConnRcvBuf)
	fct := sim.Time(-1)
	if r == transport.CloseDone {
		d.stats.Completed++
		d.stats.CompletedBytes += size
		fct = at - start
		d.fct.Observe(fct.Seconds())
	} else {
		d.stats.Aborted++
	}
	d.bus.SessionClose(at, name, sv.Name, r.String(), fct, conn.AckedBytes(), d.active)
	if after := d.spec.DrainCheckAfter; after > 0 && at+after < d.horizon {
		d.stats.LeakChecks++
		d.eng.At(at+after, func() {
			if recs, segs := conn.PoolInUse(); recs != 0 || segs != 0 {
				d.stats.Leaks++
			}
		})
	}
}

// snapshot finalizes the run's ChurnStats.
func (d *churnDriver) snapshot() *ChurnStats {
	st := d.stats
	st.Active = d.active
	st.FCT = d.fct.Stats()
	for i, sv := range d.servers {
		st.Servers = append(st.Servers, ServerChurnStats{
			Name:        sv.Name,
			Accepted:    sv.Accepted(),
			Rejected:    sv.Rejected(),
			PeakActive:  sv.PeakActive(),
			PeakBytes:   sv.PeakBytes(),
			BudgetBytes: d.spec.Servers[i].BudgetBytes,
			MaxConns:    d.spec.Servers[i].MaxConns,
		})
	}
	return &st
}

// ChurnLoads is the offered-load sweep (fraction of farm ingress capacity)
// of the churn experiment: through the knee and past it to 2× overload.
var ChurnLoads = []float64{0.3, 0.6, 0.85, 1.0, 1.3, 2.0}

// churnServers is the per-server sizing of the canonical churn experiment:
// a connection cap plus a shared receive-buffer budget, both deliberately
// small enough that overload sheds at admission rather than in the queues.
const (
	churnNumServers    = 4
	churnMaxConns      = 64
	churnBudgetBytes   = 16 << 20
	churnPerConnRcvBuf = 256 << 10
)

// ChurnSpecAt builds the canonical churn run at offered load rho (fraction
// of the server farm's 200 Mbps ingress capacity).
func ChurnSpecAt(cfg Config, rho float64) Spec {
	sizes := workload.BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	capBps := 2 * topo.DefaultRate // two core links feed the farm
	lambda := rho * capBps / 8 / sizes.Mean()
	servers := make([]ServerSpec, churnNumServers)
	for k := range servers {
		servers[k] = ServerSpec{
			Name:          topo.ServerName(k),
			Paths:         topo.ServerFarmPaths(k),
			MaxConns:      churnMaxConns,
			BudgetBytes:   churnBudgetBytes,
			PerConnRcvBuf: churnPerConnRcvBuf,
		}
	}
	return Spec{
		Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
		Topo: topo.ServerFarm(churnNumServers),
		Churn: &ChurnSpec{
			Servers:          servers,
			RatePerSec:       lambda,
			Sizes:            sizes,
			Proto:            MPCCLoss,
			MaxRetries:       5,
			RetryBase:        50 * sim.Millisecond,
			RetryCap:         2 * sim.Second,
			HandshakeTimeout: 3 * sim.Second,
			IdleTimeout:      5 * sim.Second,
			DrainCheckAfter:  2 * sim.Second,
		},
	}
}

// Churn is the overload-survival experiment: an open-loop session workload
// swept through and past the farm's saturation point. The table shows the
// knee — goodput rising with offered load until capacity, then holding —
// and where the excess goes once admission control starts shedding:
// rejects, retries, abandonments, bounded FCT percentiles. Graceful
// degradation means goodput at 2× overload stays within a bound of the
// knee instead of collapsing.
func Churn(cfg Config) []*Table {
	t := &Table{
		Title: "Churn — open-loop overload sweep on server-farm-4 (goodput and shedding vs offered load)",
		Header: []string{"rho", "offered_Mbps", "goodput_Mbps", "arrivals", "accepted",
			"rejected", "retried", "abandoned", "completed", "aborted", "active_end",
			"peak_active", "fct_p50_s", "fct_p99_s", "fct_p999_s"},
	}
	capBps := 2 * topo.DefaultRate
	stats := make([]*ChurnStats, len(ChurnLoads))
	RunParallel(len(ChurnLoads), func(i int) {
		stats[i] = Run(ChurnSpecAt(cfg, ChurnLoads[i])).Churn
	})
	dur := cfg.Duration.Seconds()
	var knee, at2x float64
	for i, rho := range ChurnLoads {
		st := stats[i]
		goodput := 8 * float64(st.CompletedBytes) / dur
		if goodput > knee {
			knee = goodput
		}
		if rho == 2.0 {
			at2x = goodput
		}
		t.AddRow(fmt.Sprintf("%.2f", rho), mbps(rho*capBps), mbps(goodput),
			fmt.Sprint(st.Arrivals), fmt.Sprint(st.Accepted), fmt.Sprint(st.Rejected),
			fmt.Sprint(st.Retried), fmt.Sprint(st.Abandoned), fmt.Sprint(st.Completed),
			fmt.Sprint(st.Aborted), fmt.Sprint(st.Active), fmt.Sprint(st.PeakActive),
			fmt.Sprintf("%.3f", st.FCT.P50), fmt.Sprintf("%.3f", st.FCT.P99),
			fmt.Sprintf("%.3f", st.FCT.P999))
	}
	if knee > 0 && at2x > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"2x-overload goodput is %.0f%% of the knee (graceful degradation wants >= 80%%)",
			100*at2x/knee))
	}
	return []*Table{t}
}
