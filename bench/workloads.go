package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/transport"
)

// simCase is one simulation of a pass: the spec handed to exp.Run and, for
// probed runs, the flight recorder on its bus (read back as obs.events).
type simCase struct {
	name string
	spec exp.Spec
	rec  *obs.FlightRecorder
}

// workload is a fixed set of simulations that one pass runs back to back.
// cases builds fresh specs for every pass (a probed spec's bus accumulates,
// so it must not be reused); check audits one finished simulation whose
// goodput was measured over window (Duration - Warmup).
type workload struct {
	name  string
	cases func(seed int64) []simCase
	check func(res *exp.Result, window sim.Time) error
	// merge folds the pass's registry snapshots with Snapshot.Merge, as a
	// sweep over probed runs does.
	merge bool
}

// Virtual durations are scaled so one pass takes one to three host seconds
// on a 2-CPU box: a 35 s run then holds ten or more passes.
const (
	bulkDuration   = 3 * sim.Second
	bulkWarmup     = 1 * sim.Second
	churnDuration  = 6 * sim.Second
	churnWarmup    = 1 * sim.Second
	probedDuration = 4 * sim.Second
	probedWarmup   = 1 * sim.Second
	probedSims     = 2
	probedShards   = 2
)

// workloads are the benchmark's workloads; README.md gives the reason for
// each and the layers it exercises.
var workloads = []workload{
	{name: "bulk", cases: bulkCases, check: checkBulk},
	{name: "churn", cases: churnCases, check: checkChurn},
	{name: "probed-shards", cases: probedCases, check: checkProbed, merge: true},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func bulkCases(seed int64) []simCase {
	var out []simCase
	for _, p := range exp.Fig10Protocols {
		for _, tp := range topo.ConvergenceSuite() {
			out = append(out, simCase{
				name: string(p) + "/" + tp.Name,
				spec: exp.Spec{Seed: seed, Duration: bulkDuration, Warmup: bulkWarmup, Topo: tp, Proto: p},
			})
		}
	}
	return out
}

// churnCases gives every load its own seed. exp.Churn runs all loads on one
// seed, so they draw the same heavy-tailed session sizes and a pass's work
// moves with the seed as a whole (events per pass spread about 10% across
// seeds); independent draws per load average that out across the sweep.
func churnCases(seed int64) []simCase {
	out := make([]simCase, len(exp.ChurnLoads))
	for i, rho := range exp.ChurnLoads {
		cfg := exp.Config{Seed: seed*int64(len(exp.ChurnLoads)) + int64(i),
			Duration: churnDuration, Warmup: churnWarmup, Reps: 1}
		out[i] = simCase{name: fmt.Sprintf("rho=%.2f", rho), spec: exp.ChurnSpecAt(cfg, rho)}
	}
	return out
}

func probedCases(seed int64) []simCase {
	out := make([]simCase, probedSims)
	for i := range out {
		rec := obs.NewFlightRecorder(0)
		bus := obs.NewBus(rec)
		bus.SetRegistry(obs.NewRegistry())
		out[i] = simCase{
			name: fmt.Sprintf("clusters4/%d", i),
			spec: exp.Spec{
				Seed: seed + int64(i), Duration: probedDuration, Warmup: probedWarmup,
				Topo: topo.Clusters(4), Proto: exp.MPCCLoss, Shards: probedShards, Probes: bus,
			},
			rec: rec,
		}
	}
	return out
}

// checkBulk: 0 < utilization <= 1, 0 < Jain <= 1, and every connection's
// byte ledger is ordered (acked <= received <= offered).
//
// Goodput counts the bytes of packets delivered inside the measurement
// window, so a packet whose transmission began before the window opened
// still counts in full: a saturated 100 Mb/s link delivers 16667 packets of
// 1500 B in a 2 s window, utilization 1.00002. The upper bound therefore
// allows one MSS per link beyond capacity x window, the most that
// completion counting can add.
func checkBulk(res *exp.Result, window sim.Time) error {
	if !(res.Utilization > 0 && res.Utilization <= 1+straddleSlack(res, window)) {
		return fmt.Errorf("utilization %v outside (0, 1+%.3g]", res.Utilization, straddleSlack(res, window))
	}
	if !(res.Jain > 0 && res.Jain <= 1) {
		return fmt.Errorf("jain %v outside (0, 1]", res.Jain)
	}
	for _, name := range sortedConns(res.Conns) {
		c := res.Conns[name]
		acked, received, offered := c.AckedBytes(), c.ReceivedBytes(), c.OfferedBytes()
		if acked > received || received > offered {
			return fmt.Errorf("flow %s: acked %d / received %d / offered %d out of order",
				name, acked, received, offered)
		}
	}
	return nil
}

// straddleSlack is one MSS per link as a share of the bytes the network
// can carry in the measurement window.
func straddleSlack(res *exp.Result, window sim.Time) float64 {
	mss := 0
	for _, c := range res.Conns {
		if c.MSS() > mss {
			mss = c.MSS()
		}
	}
	capacity := res.Net.TotalCapacity() * window.Seconds() / 8
	if capacity <= 0 {
		return 0
	}
	return float64(len(res.Net.LinkNames())*mss) / capacity
}

// checkChurn: the session ledger closes exactly, no post-close pool audit
// found a leak, and no server ever exceeded its caps.
func checkChurn(res *exp.Result, _ sim.Time) error {
	st := res.Churn
	if st == nil {
		return fmt.Errorf("churn stats missing")
	}
	if st.Accepted != st.Completed+st.Aborted+st.Active {
		return fmt.Errorf("accepted %d != completed %d + aborted %d + active %d",
			st.Accepted, st.Completed, st.Aborted, st.Active)
	}
	if st.Arrivals != st.Accepted+st.Abandoned {
		return fmt.Errorf("arrivals %d != accepted %d + abandoned %d", st.Arrivals, st.Accepted, st.Abandoned)
	}
	if st.Leaks != 0 {
		return fmt.Errorf("%d of %d pool audits found live buffers", st.Leaks, st.LeakChecks)
	}
	for _, sv := range st.Servers {
		if sv.PeakActive > sv.MaxConns {
			return fmt.Errorf("server %s peak conns %d > cap %d", sv.Name, sv.PeakActive, sv.MaxConns)
		}
		if sv.PeakBytes > sv.BudgetBytes {
			return fmt.Errorf("server %s peak bytes %d > budget %d", sv.Name, sv.PeakBytes, sv.BudgetBytes)
		}
	}
	return nil
}

// checkProbed: the bulk checks, plus a snapshot whose sim.events_processed
// gauge equals Result.Events.
func checkProbed(res *exp.Result, window sim.Time) error {
	if err := checkBulk(res, window); err != nil {
		return err
	}
	if res.Obs == nil {
		return fmt.Errorf("registry snapshot missing")
	}
	if got := res.Obs.Gauges["sim.events_processed"]; got != float64(res.Events) {
		return fmt.Errorf("sim.events_processed gauge %v != Result.Events %d", got, res.Events)
	}
	return nil
}

// hashResult folds one simulation's outputs into the pass digest: event
// count, utilization, Jain, per-flow and per-subflow goodput (flows in name
// order), and for churn the session ledger and FCT quantiles. Floats enter
// as their exact bits, so any change in a simulated statistic shows.
func hashResult(h hash.Hash64, res *exp.Result) {
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(res.Events)
	f64(res.Utilization)
	f64(res.Jain)
	names := make([]string, 0, len(res.Flows))
	for name := range res.Flows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fr := res.Flows[name]
		h.Write([]byte(name))
		f64(fr.GoodputBps)
		for _, g := range fr.SubflowGoodputBps {
			f64(g)
		}
	}
	if st := res.Churn; st != nil {
		for _, v := range []int{st.Arrivals, st.Accepted, st.Rejected, st.Retried, st.Abandoned,
			st.Completed, st.Aborted, st.Active, st.LeakChecks, st.Leaks, st.PeakActive} {
			u64(uint64(v))
		}
		u64(uint64(st.CompletedBytes))
		u64(uint64(st.FCT.Count))
		f64(st.FCT.P50)
		f64(st.FCT.P99)
		f64(st.FCT.P999)
	}
}

func sortedConns(m map[string]*transport.Connection) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
