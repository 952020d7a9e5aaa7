package exp

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/stats"
	"mpcc/internal/topo"
)

// clustersSpec is a genuinely multi-component workload: k independent
// Fig3c-style clusters, each its own shard.
func clustersSpec(k, shards int, bus *obs.Bus) Spec {
	return Spec{
		Seed:     23,
		Duration: 600 * sim.Millisecond,
		Topo:     topo.Clusters(k),
		Proto:    MPCCLoss,
		Probes:   bus,
		Shards:   shards,
		Tweak: func(net *topo.Net) {
			for _, name := range net.LinkNames() {
				l := net.Link(name)
				l.SetRate(2e6)
				l.SetDelay(10 * sim.Millisecond)
				l.SetBuffer(12000)
			}
		},
	}
}

// TestShardedClustersIdentity: on a multi-component topology, every shard
// count must produce the identical trace, snapshot, and per-flow results —
// worker parallelism can never leak into the output.
func TestShardedClustersIdentity(t *testing.T) {
	type outcome struct {
		trace []byte
		hash  string
		res   *Result
	}
	run := func(shards int) outcome {
		var buf bytes.Buffer
		jw := obs.NewJSONLWriter(&buf)
		hs := obs.NewHashSink()
		res := Run(clustersSpec(3, shards, obs.NewBus(jw, hs)))
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return outcome{trace: buf.Bytes(), hash: hs.Sum(), res: res}
	}
	base := run(1)
	if len(base.trace) == 0 {
		t.Fatal("sharded run produced an empty trace")
	}
	if len(base.res.Flows) != 6 {
		t.Fatalf("expected 6 flows, got %d", len(base.res.Flows))
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got := run(shards)
		if got.hash != base.hash || !bytes.Equal(got.trace, base.trace) {
			t.Fatalf("shards=%d trace diverges from shards=1: %s", shards, firstDiff(got.trace, base.trace))
		}
		if got.res.Events != base.res.Events {
			t.Fatalf("shards=%d processed %d events, shards=1 processed %d", shards, got.res.Events, base.res.Events)
		}
		for name, fr := range base.res.Flows {
			if g := got.res.Flows[name]; g == nil || g.GoodputBps != fr.GoodputBps {
				t.Fatalf("shards=%d flow %s goodput differs", shards, name)
			}
		}
		if fmt.Sprint(got.res.Obs.SortedCounterNames()) != fmt.Sprint(base.res.Obs.SortedCounterNames()) {
			t.Fatalf("shards=%d snapshot counter set differs", shards)
		}
	}
	// Sharded runs on multi-component topologies genuinely use distinct
	// engines per component (different seeds); sanity-check they did work.
	if base.res.Events == 0 {
		t.Fatal("no events processed")
	}
}

// TestShardedChurnIdentity: a churn run — its farm is one component whose
// sessions attach mid-run — gives the same ChurnStats, trace, and snapshot
// at 1 and 2 workers.
func TestShardedChurnIdentity(t *testing.T) {
	type outcome struct {
		hash  string
		churn ChurnStats
		snap  string
	}
	run := func(shards int) outcome {
		hs := obs.NewHashSink()
		s := ChurnSpecAt(churnTestConfig(), 1.3)
		s.Probes = obs.NewBus(hs)
		s.Shards = shards
		res := Run(s)
		if res.Churn == nil || res.Obs == nil {
			t.Fatalf("shards=%d: missing churn stats or snapshot", shards)
		}
		snap := fmt.Sprint(res.Obs.Counters, res.Obs.Gauges, res.Obs.Histograms) +
			string(obs.AppendTimeline(nil, 0, res.Obs.Series))
		return outcome{hs.Sum(), *res.Churn, snap}
	}
	base := run(1)
	if base.churn.Arrivals == 0 {
		t.Fatal("churn run saw no arrivals")
	}
	got := run(2)
	if got.hash != base.hash {
		t.Fatalf("churn trace differs between 1 and 2 workers")
	}
	if fmt.Sprintf("%+v", got.churn) != fmt.Sprintf("%+v", base.churn) {
		t.Fatalf("churn stats differ:\n%+v\nvs\n%+v", got.churn, base.churn)
	}
	if got.snap != base.snap {
		t.Fatalf("churn snapshot differs between 1 and 2 workers")
	}
}

// TestProbedMemoryFlatInRunLength: probe events are replayed window by
// window, so the most events ever buffered at once does not grow with the
// run's length.
func TestProbedMemoryFlatInRunLength(t *testing.T) {
	peak := func(dur sim.Time) int {
		bus := obs.NewBus(obs.NewFlightRecorder(0))
		bus.SetRegistry(obs.NewRegistry())
		s := clustersSpec(3, 2, bus)
		s.Duration = dur
		most := 0
		run(s, func(buffered int) { most = max(most, buffered) })
		if most == 0 {
			t.Fatalf("%v run buffered no probe events", dur)
		}
		return most
	}
	short, long := peak(sim.Second), peak(4*sim.Second)
	t.Logf("peak buffered: %d at 1s, %d at 4s", short, long)
	if float64(long) > 1.5*float64(short) {
		t.Fatalf("peak buffered probe events grew with run length: %d at 1s, %d at 4s", short, long)
	}
}

// TestFinishFoldsInNameOrder: Utilization and Jain fold the per-flow
// goodputs in flow-name order, so repeated runs agree bit for bit with the
// sorted-order fold whatever order the connection map iterates in.
func TestFinishFoldsInNameOrder(t *testing.T) {
	s := clustersSpec(3, 1, nil)
	s.Duration = 700 * sim.Millisecond // goodputs are bytes/0.7 s: inexact floats
	for i := 0; i < 20; i++ {
		res := Run(s)
		if len(res.Flows) != 6 {
			t.Fatalf("expected 6 flows, got %d", len(res.Flows))
		}
		names := make([]string, 0, len(res.Flows))
		for name := range res.Flows {
			names = append(names, name)
		}
		sort.Strings(names)
		var goodputs []float64
		total := 0.0
		for _, name := range names {
			goodputs = append(goodputs, res.Flows[name].GoodputBps)
			total += res.Flows[name].GoodputBps
		}
		util := total / res.Net.TotalCapacity()
		jain := stats.JainIndex(goodputs)
		if math.Float64bits(res.Utilization) != math.Float64bits(util) ||
			math.Float64bits(res.Jain) != math.Float64bits(jain) {
			t.Fatalf("run %d: utilization %v / jain %v, sorted-order fold gives %v / %v",
				i, res.Utilization, res.Jain, util, jain)
		}
	}
}

// TestShardsResolution pins the Spec.Shards / SetShards precedence: a
// silent spec takes the package default, else 1; an explicit value wins
// over the default; anything below 1 means 1; churn and zero-duration
// specs resolve like any other.
func TestShardsResolution(t *testing.T) {
	defer SetShards(0)
	s := Spec{Duration: sim.Second}
	if got := s.workers(); got != 1 {
		t.Fatalf("silent spec, no default: workers=%d, want 1", got)
	}
	SetShards(4)
	if got := s.workers(); got != 4 {
		t.Fatalf("silent spec, default 4: workers=%d, want 4", got)
	}
	s.Shards = 2
	if got := s.workers(); got != 2 {
		t.Fatalf("explicit spec beats default: workers=%d, want 2", got)
	}
	s.Shards = -1
	if got := s.workers(); got != 1 {
		t.Fatalf("negative spec: workers=%d, want 1", got)
	}
	for _, sp := range []Spec{{Churn: &ChurnSpec{}}, {Duration: 0}} {
		if got := sp.workers(); got != 4 {
			t.Fatalf("%+v: workers=%d, want the default 4", sp, got)
		}
	}
}
