package exp

import (
	"fmt"
	"sort"

	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// FlowSpec declares one connection of a run.
type FlowSpec struct {
	Name      string
	Proto     Protocol
	Paths     [][]string // link names per subflow
	StartAt   sim.Time
	FileBytes int64 // 0 = bulk
	Attach    AttachOptions
	// PathTweak, if set, adjusts each freshly built path of this flow before
	// the connection attaches — the hook for ACK-path impairments (ack delay,
	// jitter, compression), which live on the Path rather than on links.
	PathTweak func(p *netem.Path)
}

// Spec declares one simulation run.
type Spec struct {
	Seed     int64
	Duration sim.Time
	Warmup   sim.Time // goodput measured after this offset (the paper omits 30 s)
	Topo     *topo.Topology
	// Probes, if set, is the observability bus for this run: every link,
	// transport connection, and controller emits into it, a queue-depth
	// sampler runs, and the registry snapshot lands in Result.Obs. When nil,
	// the package probe factory (SetProbeFactory) is consulted; when that is
	// nil too, observability is fully disabled — the run is byte- and
	// event-count-identical to one built before the obs layer existed. A
	// Spec-level bus is per run: sharing one across RunAveraged replicates
	// accumulates their metrics into a single registry.
	Probes *obs.Bus
	// Tweak adjusts link parameters (buffer, loss, bandwidth) after the
	// topology is built and may schedule mid-run changes on the changed
	// link's engine (Link.Engine; net.Eng is the first component's).
	Tweak func(net *topo.Net)
	// Flows overrides the topology's flow list; when nil, Protos assigns a
	// protocol to each topology flow: the multipath protocol to multipath
	// flows and its SinglePathPeer to single-path ones.
	Flows []FlowSpec
	Proto Protocol // used when Flows is nil
	// SPProto overrides the single-path peer protocol (Figs. 12–13 use Cubic).
	SPProto Protocol
	// Shards is the number of worker goroutines that advance the run's
	// per-component engines (see Run); 0 uses the package default
	// (SetShards), and any value below 1 means 1. It never changes the
	// output: every value yields byte-identical traces, snapshots, and
	// results.
	Shards int
	// Churn, if set, overlays an open-loop session workload on the run:
	// connections arrive, transfer, and close under admission control (see
	// ChurnSpec).
	Churn *ChurnSpec
}

// FlowResult summarizes one connection after a run.
type FlowResult struct {
	GoodputBps float64 // post-warmup mean
	// MinGoodputBps/MaxGoodputBps span the replicates of a RunAveraged
	// (the paper's error bars); they equal GoodputBps for a single run.
	MinGoodputBps     float64
	MaxGoodputBps     float64
	SubflowGoodputBps []float64
	LatencyMean       float64 // seconds
	LatencyStd        float64
	FCT               sim.Time // -1 unless a File flow completed
	// Series is the per-bucket goodput in bits/s (100 ms buckets from t=0).
	Series []float64
	// SubflowSeries is the same per subflow.
	SubflowSeries [][]float64
}

// Result summarizes one run.
type Result struct {
	Flows map[string]*FlowResult
	// Utilization is total post-warmup goodput over total link capacity.
	Utilization float64
	// Jain is Jain's fairness index over per-flow goodputs.
	Jain float64
	// Net gives Tweak-adjusted access to the built network (inspection).
	Net *topo.Net
	// Conns gives post-run access to the transport connections, keyed by
	// flow name, so correctness oracles (internal/simtest) can audit
	// end-of-run transport state (per-subflow byte ledgers, failure-detector
	// state) against the network's link counters. RunAveraged keeps the
	// first replicate's connections.
	Conns map[string]*transport.Connection
	// Notes records aggregation anomalies (e.g. replicates disagreeing on
	// subflow counts in RunAveraged).
	Notes []string
	// Obs is the run's metrics-registry snapshot (drops by cause,
	// retransmits, queue-depth percentiles, MI counts per phase, engine
	// gauges, windowed series). nil when the run had no probe bus.
	// RunAveraged folds the replicates' snapshots in replicate order:
	// counters sum, gauges keep the high-water mark, histograms merge at
	// the sketch level, series add element-wise — so the merged snapshot
	// is identical for any worker count.
	Obs *obs.Snapshot
	// Events is the number of simulation events the run processed, summed
	// over shard engines; RunAveraged sums it over replicates. Throughput
	// benchmarks report it as events/op.
	Events uint64
	// Churn holds the session ledger and FCT distribution of the run's
	// churn workload; nil when Spec.Churn was nil. RunAveraged keeps the
	// first replicate's.
	Churn *ChurnStats
}

// flowsFor derives the flow specs from a topology and the spec's protocols.
func (s *Spec) flowsFor() []FlowSpec {
	if s.Flows != nil {
		return s.Flows
	}
	sp := s.SPProto
	if sp == "" {
		sp = s.Proto.SinglePathPeer()
	}
	var out []FlowSpec
	for _, f := range s.Topo.Flows {
		p := s.Proto
		if !f.Multipath() {
			p = sp
		}
		out = append(out, FlowSpec{Name: f.Name, Proto: p, Paths: f.Paths})
	}
	return out
}

// Run executes the spec and summarizes it.
//
// The topology is partitioned into interaction components — the connected
// components of the links∪flows graph over the run's effective flows, with
// all churn servers forming one more flow (topo.PartitionLinks) — and each
// component runs on its own engine, seeded sim.ShardSeed(Seed, component).
// Components share no state, so up to Spec.Shards workers advance them side
// by side. Each engine is strictly sequential and its seed depends only on
// its component index, so the output is byte-identical for any worker
// count; a single-component topology is exactly one engine seeded Seed.
//
// Probe events cannot go straight into the run bus from concurrent
// components: each component records into a private buffer, and at the end
// of every replayWindow of virtual time the buffers are k-way merged on
// (At, component) into the run bus and reset (see probeReplay). A per-flow
// Attach.Probes bus is delivered live and must not be shared across
// components.
func Run(s Spec) *Result { return run(s, nil) }

// run is Run with a hook that observes how many probe events each replay
// flush drains (nil outside tests).
func run(s Spec, onFlush func(buffered int)) *Result {
	defer countSim()
	bus := s.Probes
	if bus == nil && probeFactory != nil {
		bus = probeFactory()
	}
	if bus != nil && bus.Registry() == nil {
		bus.SetRegistry(obs.NewRegistry())
	}

	flows := s.flowsFor()
	groups := make([][][]string, 0, len(flows)+1)
	for _, f := range flows {
		groups = append(groups, f.Paths)
	}
	var farm [][]string
	if s.Churn != nil {
		// One arrival stream and one server-choice RNG drive every server,
		// so the whole farm is a single component.
		for _, sv := range s.Churn.Servers {
			farm = append(farm, sv.Paths...)
		}
		groups = append(groups, farm)
	}
	part := topo.PartitionLinks(s.Topo.Links, groups)
	net, engines := part.Build(s.Topo, s.Seed)
	if s.Tweak != nil {
		s.Tweak(net)
	}
	componentOf := func(paths [][]string) int {
		if len(paths) == 0 || len(paths[0]) == 0 {
			return 0
		}
		return part.ComponentOf(paths[0][0])
	}

	rep := newProbeReplay(bus, len(engines), onFlush)
	if bus != nil {
		bus.RunStart(s.Seed, s.Duration)
		// Probe wiring follows LinkNames (creation) order, so it never
		// depends on map iteration; each component samples its own links
		// on its own engine.
		qps := make([][]obs.QueueProbe, len(engines))
		for _, name := range net.LinkNames() {
			l := net.Link(name)
			c := part.ComponentOf(name)
			l.SetProbes(rep.comp[c])
			qps[c] = append(qps[c], l.QueueProbe())
		}
		if s.Duration > 0 {
			for c, eng := range engines {
				obs.SampleQueues(eng, rep.comp[c], queueSampleEvery, qps[c]...)
			}
		}
	}

	conns := make(map[string]*transport.Connection, len(flows))
	for _, f := range flows {
		c := componentOf(f.Paths)
		ps := buildPaths(net, f.Paths)
		for _, p := range ps {
			if bus != nil {
				p.SetProbes(rep.comp[c])
			}
			if f.PathTweak != nil {
				f.PathTweak(p)
			}
		}
		at := f.Attach
		if at.Probes == nil {
			at.Probes = rep.comp[c]
		}
		conn := Attach(engines[c], f.Name, f.Proto, ps, at)
		if f.FileBytes > 0 {
			conn.SetApp(transport.NewFile(f.FileBytes), nil)
		} else {
			conn.SetApp(transport.Bulk{}, nil)
		}
		conn.Start(f.StartAt)
		conns[f.Name] = conn
	}
	var churn *churnDriver
	if s.Churn != nil {
		c := componentOf(farm)
		churn = startChurn(engines[c], &s, net, rep.comp[c])
	}

	g := sim.NewGroup(engines...)
	g.SetWorkers(s.workers())
	if s.Duration <= 0 {
		g.Run(0)
		rep.flush()
	}
	for t := sim.Time(0); t < s.Duration; {
		t = min(t+replayWindow, s.Duration)
		g.Run(t)
		rep.flush()
	}

	var events uint64
	var maxPending int
	var endAt sim.Time
	for _, e := range engines {
		events += e.Processed
		maxPending = max(maxPending, e.MaxPending())
		endAt = max(endAt, e.Now())
	}
	res := finish(s, net, conns, bus, events, maxPending, endAt)
	if churn != nil {
		res.Churn = churn.snapshot()
	}
	return res
}

// finish publishes the engine gauges, snapshots the registry, closes the
// trace, and summarizes goodputs. events and maxPending aggregate over the
// component engines (sum and max respectively).
func finish(s Spec, net *topo.Net, conns map[string]*transport.Connection,
	bus *obs.Bus, events uint64, maxPending int, endAt sim.Time) *Result {
	res := &Result{Flows: make(map[string]*FlowResult, len(conns)), Net: net, Conns: conns, Events: events}
	if bus != nil {
		if reg := bus.Registry(); reg != nil {
			reg.Gauge("sim.events_processed").Set(float64(events))
			reg.Gauge("sim.max_pending_timers").Set(float64(maxPending))
			res.Obs = reg.Snapshot()
			if snapshotSink != nil {
				snapshotSink(s.Seed, res.Obs)
			}
		}
		bus.RunEnd(endAt)
	}
	// Fold in flow-name order: map order would make the float sums (and so
	// Utilization and Jain) vary between identical runs.
	names := make([]string, 0, len(conns))
	for name := range conns {
		names = append(names, name)
	}
	sort.Strings(names)
	goodputs := make([]float64, 0, len(names))
	total := 0.0
	for _, name := range names {
		conn := conns[name]
		fr := &FlowResult{FCT: conn.FCT()}
		fr.GoodputBps = conn.MeanGoodputBps(s.Warmup, s.Duration)
		fr.MinGoodputBps, fr.MaxGoodputBps = fr.GoodputBps, fr.GoodputBps
		_, fr.LatencyStd = conn.MeanLatency()
		fr.LatencyMean = conn.MeanLatencySince(s.Warmup)
		fr.Series = scale(conn.Goodput().Rates(), 8)
		for _, sf := range conn.Subflows() {
			fr.SubflowGoodputBps = append(fr.SubflowGoodputBps,
				8*sf.Goodput().MeanRateSince(s.Warmup, s.Duration))
			fr.SubflowSeries = append(fr.SubflowSeries, scale(sf.Goodput().Rates(), 8))
		}
		res.Flows[name] = fr
		goodputs = append(goodputs, fr.GoodputBps)
		total += fr.GoodputBps
	}
	if capacity := net.TotalCapacity(); capacity > 0 {
		res.Utilization = total / capacity
	}
	res.Jain = stats.JainIndex(goodputs)
	return res
}

func buildPaths(net *topo.Net, pathNames [][]string) []*netem.Path {
	out := make([]*netem.Path, len(pathNames))
	for i, names := range pathNames {
		out[i] = net.Path(names...)
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// RunAveraged runs the spec reps times with consecutive seeds and averages
// per-flow goodputs, utilization and Jain index. Series and FCT come from
// the first run. Replicates execute concurrently (see RunParallel) but are
// merged in replicate order, so the output is identical for any worker
// count.
func RunAveraged(s Spec, reps int) *Result {
	if reps < 1 {
		reps = 1
	}
	results := make([]*Result, reps)
	RunParallel(reps, func(r int) {
		rs := s
		rs.Seed = s.Seed + int64(r)*1000
		results[r] = Run(rs)
	})
	agg := results[0]
	for _, res := range results[1:] {
		mergeInto(agg, res)
	}
	n := float64(reps)
	agg.Utilization /= n
	agg.Jain /= n
	for _, fr := range agg.Flows {
		fr.GoodputBps /= n
		fr.LatencyMean /= n
		fr.LatencyStd /= n
		for i := range fr.SubflowGoodputBps {
			fr.SubflowGoodputBps[i] /= n
		}
	}
	return agg
}

// mergeInto accumulates res into agg (one RunAveraged replicate). If the
// replicates disagree on a flow's subflow count — possible when a fault
// timeline permanently removes a subflow in some seeds — subflow goodputs
// aggregate over the common prefix and the discrepancy is recorded in
// agg.Notes instead of panicking on an index out of range.
func mergeInto(agg, res *Result) {
	agg.Utilization += res.Utilization
	agg.Jain += res.Jain
	agg.Events += res.Events
	if agg.Obs != nil && res.Obs != nil {
		agg.Obs.Merge(res.Obs)
	}
	for name, fr := range res.Flows {
		a := agg.Flows[name]
		if a == nil {
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("flow %s: present in a later replicate only; skipped", name))
			continue
		}
		a.GoodputBps += fr.GoodputBps
		if fr.GoodputBps < a.MinGoodputBps {
			a.MinGoodputBps = fr.GoodputBps
		}
		if fr.GoodputBps > a.MaxGoodputBps {
			a.MaxGoodputBps = fr.GoodputBps
		}
		a.LatencyMean += fr.LatencyMean
		a.LatencyStd += fr.LatencyStd
		n := len(a.SubflowGoodputBps)
		if len(fr.SubflowGoodputBps) != n {
			if len(fr.SubflowGoodputBps) < n {
				n = len(fr.SubflowGoodputBps)
			}
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("flow %s: replicates disagree on subflow count (%d vs %d); averaging the first %d",
					name, len(a.SubflowGoodputBps), len(fr.SubflowGoodputBps), n))
		}
		for i := 0; i < n; i++ {
			a.SubflowGoodputBps[i] += fr.SubflowGoodputBps[i]
		}
	}
}
