// Package mpcc is the public facade of the MPCC reproduction: online-
// learning multipath congestion control (Gilad et al., CoNEXT 2020) with a
// deterministic packet-level network emulator, the MPTCP baseline
// controllers, the paper's schedulers, LMMF fairness theory, and the full
// evaluation harness.
//
// Quick start:
//
//	eng := mpcc.NewEngine(42)
//	net := mpcc.NewNetwork(eng)
//	net.AddLink("wifi", 80e6, 15*mpcc.Millisecond, 375_000)
//	net.AddLink("lte", 30e6, 40*mpcc.Millisecond, 750_000)
//	conn := mpcc.NewConnection(eng, "dl", mpcc.MPCCLatency,
//		[]*mpcc.Path{net.Path("wifi"), net.Path("lte")}, mpcc.AttachOptions{})
//	conn.SetApp(mpcc.Bulk{}, nil)
//	conn.Start(0)
//	eng.Run(20 * mpcc.Second)
//
// Every table and figure of the paper can be regenerated through
// RunExperiment (or the cmd/mpccbench tool).
package mpcc

import (
	"io"

	"mpcc/internal/exp"
	"mpcc/internal/fairness"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
	"mpcc/internal/workload"
)

// Core simulation types.
type (
	// Engine is the deterministic discrete-event simulator driving a run.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Network is a collection of named emulated links.
	Network = topo.Net
	// Link is one emulated link (bandwidth, delay, drop-tail buffer, loss).
	Link = netem.Link
	// Path is a unidirectional route a subflow sends on.
	Path = netem.Path
	// Connection is a multipath transport connection.
	Connection = transport.Connection
	// Subflow is one path-bound flow of a Connection.
	Subflow = transport.Subflow
	// SubflowState is a Subflow's failure-detector state (active/failed).
	SubflowState = transport.SubflowState
	// FaultInjector scripts link outages, flap cycles, and burst-loss
	// windows on the virtual clock.
	FaultInjector = netem.FaultInjector
	// GilbertElliott parameterizes two-state burst loss on a Link.
	GilbertElliott = netem.GilbertElliott
	// Bulk is an infinite data source.
	Bulk = transport.Bulk
	// ConnOption tunes a Connection (pass via AttachOptions.ConnOptions).
	ConnOption = transport.ConnOption
	// Protocol names a congestion-control scheme.
	Protocol = exp.Protocol
	// AttachOptions tune protocol attachment.
	AttachOptions = exp.AttachOptions
	// Config scales experiment runs.
	Config = exp.Config
	// Table is a printable experiment result.
	Table = exp.Table
	// Topology is a canonical evaluation network.
	Topology = topo.Topology
	// ParallelLinkNetwork is the fairness-theory abstraction of §4.2.
	ParallelLinkNetwork = fairness.Network
	// Allocation is an LMMF allocation on a ParallelLinkNetwork.
	Allocation = fairness.Allocation
	// Clos is the Fig. 18 data-center fabric.
	Clos = topo.Clos
	// ClosConfig sizes a Clos fabric.
	ClosConfig = topo.ClosConfig
	// ProbeBus is the cross-layer observability bus (see internal/obs).
	ProbeBus = obs.Bus
	// ProbeEvent is one typed probe record delivered to sinks.
	ProbeEvent = obs.Event
	// ProbeSink consumes probe events.
	ProbeSink = obs.Sink
	// ProbeSinkFunc adapts a function to ProbeSink.
	ProbeSinkFunc = obs.SinkFunc
	// MetricsRegistry aggregates probe events into counters, gauges, and
	// histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a registry frozen at the end of a run.
	MetricsSnapshot = obs.Snapshot
	// JSONLWriter is a ProbeSink writing byte-reproducible JSONL traces.
	JSONLWriter = obs.JSONLWriter
	// QueueProbe exposes one link's queue depth to SampleQueues.
	QueueProbe = obs.QueueProbe
	// MetricsSeries is one windowed time series of a MetricsSnapshot
	// (per-subflow rate and RTT, per-link queue depth).
	MetricsSeries = obs.SeriesData
	// FlightRecorder is a bounded ring of the most recent probe events — a
	// ProbeSink whose contents dump as replayable JSONL after a failure.
	FlightRecorder = obs.FlightRecorder
	// TokenBucket meters bytes against a rate/burst contract (the model
	// behind Link.SetPolicer and Link.SetShaper).
	TokenBucket = netem.TokenBucket
	// HandoverStep is one rate/delay state of an LEO handover schedule.
	HandoverStep = netem.HandoverStep
	// BWTrace is a recorded bandwidth timeseries for trace-replay links.
	BWTrace = netem.BWTrace
	// RatePoint is one (time, rate) sample of a BWTrace or rate schedule.
	RatePoint = netem.RatePoint
	// TopologyPartition groups a topology's links into independent
	// interaction components, one engine shard each.
	TopologyPartition = topo.Partition
	// Server models one accept point's resource limits: a concurrent-
	// connection cap and a shared receive-buffer byte budget admission
	// control sheds against (see DESIGN.md "Open-loop workload and overload
	// model").
	Server = transport.Server
	// AdmitResult is the outcome of a Server admission attempt.
	AdmitResult = transport.AdmitResult
	// CloseReason records why a Connection closed (done/aborted/idle/
	// handshake-timeout).
	CloseReason = transport.CloseReason
	// PoissonArrivals generates homogeneous (optionally shape-modulated)
	// Poisson session arrivals.
	PoissonArrivals = workload.Poisson
	// MMPPArrivals generates Markov-modulated Poisson arrivals (bursty,
	// state-switched rates).
	MMPPArrivals = workload.MMPP
	// MMPPState is one (rate, mean dwell) state of an MMPPArrivals process.
	MMPPState = workload.MMPPState
	// ArrivalShape modulates an arrival process's rate over virtual time
	// (e.g. Diurnal).
	ArrivalShape = workload.Shape
	// BoundedPareto is the heavy-tailed object-size distribution of the
	// open-loop workload model.
	BoundedPareto = workload.BoundedPareto
	// Backoff is a capped exponential retry schedule with deterministic
	// multiplicative jitter.
	Backoff = workload.Backoff
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// The evaluated protocols (§7.1).
const (
	MPCCLatency = exp.MPCCLatency
	MPCCLoss    = exp.MPCCLoss
	LIA         = exp.LIA
	OLIA        = exp.OLIA
	Balia       = exp.Balia
	WVegas      = exp.WVegas
	Reno        = exp.Reno
	Cubic       = exp.Cubic
	BBR         = exp.BBR
)

// Subflow failure-detector states.
const (
	SubflowActive = transport.SubflowActive
	SubflowFailed = transport.SubflowFailed
)

// Server admission outcomes.
const (
	AdmitOK      = transport.AdmitOK
	RejectConns  = transport.RejectConns
	RejectBudget = transport.RejectBudget
)

// Connection close reasons.
const (
	CloseDone      = transport.CloseDone
	CloseAborted   = transport.CloseAborted
	CloseIdle      = transport.CloseIdle
	CloseHandshake = transport.CloseHandshake
)

// NewEngine returns a simulation engine seeded deterministically.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewTokenBucket returns a token bucket that starts full at now (see
// Link.SetPolicer / Link.SetShaper for attaching contracts to links).
func NewTokenBucket(rateBps float64, burstBytes int, now Time) *TokenBucket {
	return netem.NewTokenBucket(rateBps, burstBytes, now)
}

// ScheduleHandovers applies an LEO handover schedule to a link: count steps
// from start, one every period, cycling through steps. Returns a stop func.
func ScheduleHandovers(eng *Engine, l *Link, steps []HandoverStep, start, period Time, count int) (stop func()) {
	return netem.ScheduleHandovers(eng, l, steps, start, period, count)
}

// ScheduleRates drives a link's rate from (time, rate) samples, looping
// with the given period (0 = play once).
func ScheduleRates(eng *Engine, l *Link, points []RatePoint, loop Time) (stop func()) {
	return netem.ScheduleRates(eng, l, points, loop)
}

// ParseBWTrace reads a bandwidth trace from CSV ("time_s,rate_mbps" rows,
// # comments and one optional header allowed).
func ParseBWTrace(r io.Reader) (*BWTrace, error) { return netem.ParseBWTrace(r) }

// ParseBWTraceString parses a bandwidth trace held in a string.
func ParseBWTraceString(s string) (*BWTrace, error) { return netem.ParseBWTraceString(s) }

// NewFaultInjector returns an injector scheduling link faults on eng's
// clock. Every method returns a stop function cancelling the rest of its
// schedule.
func NewFaultInjector(eng *Engine) *FaultInjector { return netem.NewFaultInjector(eng) }

// WithRcvBuf bounds the receiver's reassembly buffer (bytes); 0 means
// unlimited.
func WithRcvBuf(bytes int64) ConnOption { return transport.WithRcvBuf(bytes) }

// WithFailThreshold sets how many consecutive RTO episodes fail a subflow;
// n <= 0 disables the failure detector.
func WithFailThreshold(n int) ConnOption { return transport.WithFailThreshold(n) }

// WithIdleTimeout aborts a connection when no delivery progress happens for
// d; 0 disables the watchdog.
func WithIdleTimeout(d Time) ConnOption { return transport.WithIdleTimeout(d) }

// WithHandshakeTimeout aborts a connection that never delivers a byte
// within d of starting; 0 disables the watchdog.
func WithHandshakeTimeout(d Time) ConnOption { return transport.WithHandshakeTimeout(d) }

// NewServer returns an accept point with the given admission limits;
// maxConns <= 0 or budgetBytes <= 0 disables that limit.
func NewServer(name string, maxConns int, budgetBytes int64) *Server {
	return transport.NewServer(name, maxConns, budgetBytes)
}

// NewPoissonArrivals returns a seeded Poisson arrival process at ratePerSec,
// optionally modulated by shape (nil = constant rate).
func NewPoissonArrivals(seed int64, ratePerSec float64, shape ArrivalShape) *PoissonArrivals {
	return workload.NewPoisson(seed, ratePerSec, shape)
}

// NewMMPPArrivals returns a seeded Markov-modulated Poisson arrival process
// cycling through the given states.
func NewMMPPArrivals(seed int64, states []MMPPState, shape ArrivalShape) *MMPPArrivals {
	return workload.NewMMPP(seed, states, shape)
}

// Diurnal returns an arrival shape oscillating sinusoidally between 1.0 and
// trough over the given period — the classic day/night load curve.
func Diurnal(period Time, trough float64) ArrivalShape { return workload.Diurnal(period, trough) }

// WithProbeInterval sets how often a failed subflow probes for revival;
// d <= 0 disables probing.
func WithProbeInterval(d Time) ConnOption { return transport.WithProbeInterval(d) }

// NewNetwork returns an empty network of named links on eng.
func NewNetwork(eng *Engine) *Network { return topo.NewNet(eng) }

// NewProbeBus returns an observability bus delivering to the given sinks.
// Attach it via AttachOptions.Probes (and Link.SetProbes for link drops);
// a nil *ProbeBus everywhere is the disabled, zero-overhead state.
func NewProbeBus(sinks ...ProbeSink) *ProbeBus { return obs.NewBus(sinks...) }

// NewMetricsRegistry returns an empty metrics registry; attach it to a bus
// with SetRegistry to aggregate events as they are emitted.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJSONLWriter returns a trace sink writing one JSON object per event to
// w, with stable field order (byte-reproducible for a fixed seed).
func NewJSONLWriter(w io.Writer) *JSONLWriter { return obs.NewJSONLWriter(w) }

// SampleQueues periodically emits queue-depth events for the given link
// probes (Link.QueueProbe) onto b until the returned stop function is
// called.
func SampleQueues(eng *Engine, b *ProbeBus, every Time, probes ...QueueProbe) (stop func()) {
	return obs.SampleQueues(eng, b, every, probes...)
}

// NewFlightRecorder returns a flight recorder holding the last size probe
// events (size <= 0 picks the 4096-event default). Add it to a bus as a sink;
// once warm it records without allocating.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = obs.DefaultFlightRecorderSize
	}
	return obs.NewFlightRecorder(size)
}

// WithProbes attaches an observability bus to a Connection being built via
// ConnOptions (NewConnection wires AttachOptions.Probes automatically).
func WithProbes(b *ProbeBus) ConnOption { return transport.WithProbes(b) }

// NewFile returns a fixed-size transfer application.
func NewFile(bytes int64) transport.App { return transport.NewFile(bytes) }

// NewConnection builds a connection running the protocol over the paths
// (one subflow per path), with the paper's scheduler defaults.
func NewConnection(eng *Engine, name string, p Protocol, paths []*Path, o AttachOptions) *Connection {
	return exp.Attach(eng, name, p, paths, o)
}

// DefaultConfig returns the scaled-down experiment configuration.
func DefaultConfig() Config { return exp.DefaultConfig() }

// RunExperiment regenerates the named table/figure; see Experiments for the
// catalogue.
func RunExperiment(id string, cfg Config) ([]*Table, error) { return exp.RunByID(id, cfg) }

// LMMF computes the lexicographic max-min fair allocation on a
// parallel-link network (the fairness notion of Theorems 4.1/5.1/5.2).
func LMMF(n *ParallelLinkNetwork) (*Allocation, error) { return fairness.LMMF(n) }

// NewClos builds the Fig. 18 data-center fabric on eng.
func NewClos(eng *Engine, cfg ClosConfig) *Clos { return topo.NewClos(eng, cfg) }

// DefaultClosConfig returns the scaled testbed configuration (DESIGN.md).
func DefaultClosConfig() ClosConfig { return topo.DefaultClosConfig() }

// ShardSeed derives shard i's engine seed from a run seed, so a sharded
// run's per-component randomness is a pure function of (seed, component).
func ShardSeed(seed int64, i int) int64 { return sim.ShardSeed(seed, i) }

// PartitionTopology splits a topology into independent interaction
// components (links connected by a flow path, or sibling subflows of one
// connection). Each component can run on its own engine shard.
func PartitionTopology(t *Topology) *TopologyPartition { return topo.PartitionTopology(t) }

// Clusters returns a topology of k disjoint Fig. 3(c)-style clusters — the
// canonical multi-component workload for the space-parallel engine.
func Clusters(k int) *Topology { return topo.Clusters(k) }

// SetShards sets the process-wide default number of worker goroutines that
// advance one experiment run's component engines, for runs that don't
// choose one (n < 1 means 1). Output is identical for any value; see
// DESIGN.md.
func SetShards(n int) { exp.SetShards(n) }

// Experiments lists the available experiment ids with descriptions.
func Experiments() map[string]string {
	out := make(map[string]string)
	for _, e := range exp.Registry() {
		out[e.ID] = e.Desc
	}
	return out
}
