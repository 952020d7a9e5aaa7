package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	ccpkg "mpcc/internal/cc"
	ccmpcc "mpcc/internal/cc/mpcc"
	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	loadgen "mpcc/internal/workload"
)

// A layer bench calls one module's public functions a fixed number of
// times per repetition. prep builds the inputs outside the timed region and
// returns the timed body, which reports how many operations it performed so
// the count can be checked. The inputs are fixed (not drawn from --seed),
// so a layer's cost compares across runs and commits.
type layerBench struct {
	name string
	unit string  // reported unit
	per  float64 // nanoseconds per reported unit
	ops  int
	prep func(ops int) func() int
}

// benchReps is how many timed repetitions each layer bench makes; the
// median repetition is reported.
const benchReps = 7

var layerBenches = []layerBench{
	{name: "sim.dispatch_ns", unit: "ns", per: 1, ops: 300_000,
		prep: func(ops int) func() int { return prepDispatch(ops, sim.Microsecond, 500*sim.Millisecond) }},
	{name: "sim.overflow_dispatch_ns", unit: "ns", per: 1, ops: 300_000,
		prep: func(ops int) func() int { return prepDispatch(ops, 600*sim.Millisecond, 5*sim.Second) }},
	{name: "sim.cancel_ns", unit: "ns", per: 1, ops: 300_000, prep: prepCancel},
	{name: "netem.forward_ns", unit: "ns", per: 1, ops: 200_000, prep: prepForward},
	{name: "cc.mpcc_mi_ns", unit: "ns", per: 1, ops: 200_000, prep: prepMPCCDecision},
	{name: "obs.emit_ns.nil", unit: "ns", per: 1, ops: 2_000_000, prep: prepEmit(func() *obs.Bus { return nil })},
	{name: "obs.emit_ns.registry", unit: "ns", per: 1, ops: 500_000, prep: prepEmit(func() *obs.Bus {
		b := obs.NewBus()
		b.SetRegistry(obs.NewRegistry())
		return b
	})},
	{name: "obs.emit_ns.flightrec", unit: "ns", per: 1, ops: 1_000_000, prep: prepEmit(func() *obs.Bus {
		return obs.NewBus(obs.NewFlightRecorder(0))
	})},
	{name: "obs.emit_ns.jsonl", unit: "ns", per: 1, ops: 200_000, prep: prepEmit(func() *obs.Bus {
		return obs.NewBus(obs.NewJSONLWriter(io.Discard))
	})},
	{name: "obs.merge_us", unit: "us", per: 1e3, ops: 64, prep: prepMerge},
	{name: "workload.next_ns", unit: "ns", per: 1, ops: 500_000, prep: prepArrivals},
}

// measure times benchReps repetitions and returns the median cost per
// operation in the bench's unit.
func (d layerBench) measure() (float64, error) {
	per := make([]float64, benchReps)
	for r := range per {
		body := d.prep(d.ops)
		t0 := time.Now()
		n := body()
		el := time.Since(t0)
		if n != d.ops {
			return 0, fmt.Errorf("%s: performed %d operations, want %d", d.name, n, d.ops)
		}
		per[r] = float64(el.Nanoseconds()) / float64(n) / d.per
	}
	return median(per), nil
}

// actor is one self-rescheduling timer owner for the dispatch benches:
// every firing re-arms it through the pooled Schedule path.
type actor struct {
	eng    *sim.Engine
	budget *int
	delays []sim.Time
	i      int
}

func fireActor(a any) {
	ac := a.(*actor)
	if *ac.budget <= 0 {
		return
	}
	*ac.budget--
	ac.i++
	ac.eng.Schedule(ac.eng.Now()+ac.delays[ac.i&(len(ac.delays)-1)], fireActor, ac)
}

// prepDispatch keeps 1024 pooled timers in flight, each re-arming at a
// delay drawn from [lo, hi): inside the wheel span for lo, hi below ~0.54 s,
// on the overflow heap beyond it.
func prepDispatch(ops int, lo, hi sim.Time) func() int {
	const actors = 1024
	rng := rand.New(rand.NewSource(1))
	delays := make([]sim.Time, 4096) // a power of two: indices wrap by mask
	for i := range delays {
		delays[i] = lo + sim.Time(rng.Int63n(int64(hi-lo)))
	}
	eng := sim.NewEngine(1)
	budget := ops - actors // the initial arms fire too
	for i := 0; i < actors; i++ {
		ac := &actor{eng: eng, budget: &budget, delays: delays, i: i * 4}
		eng.Schedule(delays[i], fireActor, ac)
	}
	return func() int {
		eng.Run(0)
		return int(eng.Processed)
	}
}

func noop(any) {}

// prepCancel arms and immediately cancels pooled timers (ScheduleRef + Stop,
// the RTO/pacer pattern) over a wheel holding 1024 other timers.
func prepCancel(ops int) func() int {
	rng := rand.New(rand.NewSource(2))
	eng := sim.NewEngine(1)
	for i := 0; i < 1024; i++ {
		eng.Schedule(sim.Time(rng.Int63n(int64(500*sim.Millisecond))), noop, nil)
	}
	delays := make([]sim.Time, 4096) // a power of two: indices wrap by mask
	for i := range delays {
		delays[i] = sim.Millisecond + sim.Time(rng.Int63n(int64(400*sim.Millisecond)))
	}
	return func() int {
		n := 0
		for i := 0; i < ops; i++ {
			r := eng.ScheduleRef(delays[i&(len(delays)-1)], noop, nil)
			if r.Stop() {
				n++
			}
		}
		return n
	}
}

// prepForward sends packets through one 10 Gb/s link into a sink that does
// nothing, 64 at a time, running the engine dry after each batch.
func prepForward(ops int) func() int {
	const batch = 64
	eng := sim.NewEngine(1)
	link := netem.NewLink(eng, "l", 10e9, sim.Millisecond, 1<<24)
	path := netem.NewPath(eng, "p", link)
	delivered := 0
	sink := netem.SinkFunc(func(*netem.Packet) { delivered++ })
	return func() int {
		for sent := 0; sent < ops; sent += batch {
			for i := 0; i < batch && sent+i < ops; i++ {
				path.Send(1500, nil, sink, nil)
			}
			eng.Run(0)
		}
		return delivered
	}
}

// prepMPCCDecision drives two sibling MPCC controllers through monitor
// intervals with synthetic statistics from a 50 Mb/s-per-subflow fluid
// bottleneck; one operation is one NextRate + OnMIComplete pair.
func prepMPCCDecision(ops int) func() int {
	grp := ccmpcc.NewGroup()
	cfg := ccmpcc.DefaultConfig(ccmpcc.LossParams())
	ctls := []*ccmpcc.Controller{
		ccmpcc.New(cfg, grp, rand.New(rand.NewSource(3))),
		ccmpcc.New(cfg, grp, rand.New(rand.NewSource(4))),
	}
	const capBps, rtt = 50e6, 30 * sim.Millisecond
	return func() int {
		now := sim.Time(0)
		n := 0
		for n < ops {
			for _, c := range ctls {
				rate := c.NextRate(now, rtt)
				loss, grad := 0.0, 0.0
				if rate > capBps {
					loss, grad = 1-capBps/rate, 0.02
				}
				sent := int(rate * rtt.Seconds() / 8)
				lost := int(float64(sent) * loss)
				c.OnMIComplete(ccpkg.MIStats{
					Index: n, Start: now, End: now + rtt, TargetRate: rate,
					BytesSent: sent, BytesAcked: sent - lost, BytesLost: lost,
					SendRate: rate, Goodput: rate * (1 - loss), LossRate: loss,
					MinRTT: rtt, AvgRTT: rtt, RTTGradient: grad,
				})
				n++
			}
			now += rtt
		}
		return n
	}
}

// probeSample is a real probe stream and registry snapshot for the obs
// benches to replay.
type probeSample struct {
	events []obs.Event
	snap   *obs.Snapshot
}

// probedSample takes the sample once, from a short probed two-cluster run.
var probedSample = sync.OnceValue(func() probeSample {
	rec := obs.NewFlightRecorder(8192)
	bus := obs.NewBus(rec)
	bus.SetRegistry(obs.NewRegistry())
	res := exp.Run(exp.Spec{Seed: 1, Duration: 2 * sim.Second, Topo: topo.Clusters(2),
		Proto: exp.MPCCLoss, Shards: 1, Probes: bus})
	return probeSample{events: rec.Events(), snap: res.Obs}
})

// prepEmit replays the sampled probe stream through Bus.Emit on the bus
// newBus builds (nil for the disabled path).
func prepEmit(newBus func() *obs.Bus) func(ops int) func() int {
	return func(ops int) func() int {
		evs := probedSample().events
		bus := newBus()
		return func() int {
			for i, j := 0, 0; i < ops; i++ {
				bus.Emit(evs[j])
				if j++; j == len(evs) {
					j = 0
				}
			}
			return ops
		}
	}
}

// prepMerge folds the sampled snapshot into a fresh one ops times.
func prepMerge(ops int) func() int {
	dst := obs.NewRegistry().Snapshot()
	src := probedSample().snap
	return func() int {
		for i := 0; i < ops; i++ {
			dst.Merge(src)
		}
		return ops
	}
}

// prepArrivals draws churn arrivals and object sizes as exp's churn
// workload does: one operation is a Poisson Next plus a bounded-Pareto Sample.
func prepArrivals(ops int) func() int {
	arr := loadgen.NewPoisson(5, 800, nil)
	sizes := loadgen.BoundedPareto{Alpha: 1.3, Min: 30e3, Max: 30e6}
	rng := rand.New(rand.NewSource(6))
	return func() int {
		now := sim.Time(0)
		var bytes float64
		for i := 0; i < ops; i++ {
			now = arr.Next(now)
			bytes += sizes.Sample(rng)
		}
		if bytes <= 0 {
			return 0
		}
		return ops
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
