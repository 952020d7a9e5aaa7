package exp

import (
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// probeFactory, when set, builds the observability bus for every Run whose
// Spec carries no bus of its own. Returning a fresh bus per call gives each
// run an isolated metrics registry while the factory can still share one
// trace sink (e.g. a JSONL writer) across a sequential sweep. cmd/mpccbench
// -trace installs one.
var probeFactory func() *obs.Bus

// SetProbeFactory installs (or, with nil, removes) the per-run probe bus
// factory. The factory is consulted once per Run, from the goroutine
// executing that run — when combined with RunParallel, either make the
// returned buses' sinks concurrency-safe or force a single worker
// (byte-reproducible traces require the latter anyway, since run order in a
// shared trace is scheduling-dependent otherwise).
func SetProbeFactory(f func() *obs.Bus) { probeFactory = f }

// snapshotSink, when set, receives every probed Run's registry snapshot right
// after it is taken (before Result post-processing). cmd/mpccbench -timeline
// installs one to stream per-run windowed series without holding every Result.
// Like the probe factory, the sink is invoked from the goroutine executing
// the run; combine with a single RunParallel worker unless it is
// concurrency-safe.
var snapshotSink func(runSeed int64, s *obs.Snapshot)

// SetSnapshotSink installs (or, with nil, removes) the per-run snapshot sink.
func SetSnapshotSink(f func(runSeed int64, s *obs.Snapshot)) { snapshotSink = f }

// queueSampleEvery is the virtual-time period of the link queue-depth
// sampler Run installs when probes are live.
const queueSampleEvery = 10 * sim.Millisecond

// replayWindow is the virtual time between flushes of the per-component
// probe buffers into the run bus: short enough that the buffers hold a
// small, run-length-independent slice of the trace, long enough that the
// per-window barrier is invisible next to the events in between.
const replayWindow = 100 * sim.Millisecond

// eventRecorder buffers one component's probe events in emission order.
// Only that component's engine goroutine appends to it; the Group.Run
// barrier hands it back to the flushing goroutine.
type eventRecorder struct{ evs []obs.Event }

func (r *eventRecorder) Emit(e obs.Event) { r.evs = append(r.evs, e) }

// probeReplay routes a run's probe events from its component engines into
// the run bus. Each component emits into a private bus (comp[c]) whose
// only sink is a recorder; comp is all nil when the run has no bus. The
// private buses carry no registry: the run bus's registry folds the events
// once, serially, during flush.
type probeReplay struct {
	bus     *obs.Bus
	recs    []*eventRecorder
	comp    []*obs.Bus
	onFlush func(buffered int)
}

func newProbeReplay(bus *obs.Bus, components int, onFlush func(int)) *probeReplay {
	r := &probeReplay{bus: bus, comp: make([]*obs.Bus, components), onFlush: onFlush}
	if bus == nil {
		return r
	}
	r.recs = make([]*eventRecorder, components)
	for c := range r.recs {
		r.recs[c] = &eventRecorder{}
		r.comp[c] = obs.NewBus(r.recs[c])
	}
	return r
}

// flush k-way merges the buffered per-component streams on (At, component)
// — ties resolve to the lower component, FIFO within one — replays them
// into the run bus, and empties the buffers. With one component this is
// exactly that component's live stream.
func (r *probeReplay) flush() {
	if r.bus == nil {
		return
	}
	buffered := 0
	for _, rec := range r.recs {
		buffered += len(rec.evs)
	}
	if r.onFlush != nil {
		r.onFlush(buffered)
	}
	pos := make([]int, len(r.recs))
	for {
		best := -1
		for c, rec := range r.recs {
			if pos[c] < len(rec.evs) &&
				(best < 0 || rec.evs[pos[c]].At < r.recs[best].evs[pos[best]].At) {
				best = c
			}
		}
		if best < 0 {
			break
		}
		r.bus.Emit(r.recs[best].evs[pos[best]])
		pos[best]++
	}
	for _, rec := range r.recs {
		rec.evs = rec.evs[:0]
	}
}
