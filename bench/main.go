// Command bench is the repository benchmark. For one workload it stands
// the workload's simulations up several times (set-up cost), runs them
// back to back in passes for a fixed host time (a closed loop with one
// client: the next simulation starts when the previous one returns),
// checks every simulation's outputs and the per-pass determinism digest,
// and prints the metrics as one JSON object on the last line of stdout.
//
//	bash bench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run on the same inputs and reports the per-layer metrics. See
// bench/README.md for the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: bulk, churn or probed-shards")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (bulk, churn, probed-shards), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	printMeta(w, *seed, *trace)
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMeta prints the run metadata every result is read against.
func printMeta(w *workload, seed int64, trace int) {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	fmt.Printf("meta: go=%s GOMAXPROCS=%d nproc=%d rev=%s%s workload=%s seed=%d trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev, modified, w.name, seed, trace)
}

// pass is what one pass over the workload's simulations measured.
type pass struct {
	wall, cpu float64 // seconds
	peakHeap  uint64  // bytes of live heap, highest GC report in the pass
	sims      int
	failed    int
	digest    uint64

	events, netemPkts, netemDrops, sentPkts, lostPkts uint64
	conns, obsEvents                                  uint64
	arrivals, accepted, rejected, retried             uint64

	allocBytes, allocs, gcCycles, gcPauseNs uint64
}

// run measures one workload: a reference pass, then passes until the
// host-time budget is spent. Before every pass a short batch of set-ups is
// timed and the heap is collected, so set-up time samples the whole run and
// each pass starts from the same heap state. A traced run spends the first
// half of the budget untraced and the second half with spans on and a CPU
// profile around each pass, then times the layer benches.
func run(w *workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	hw := startHeapWatch()
	defer hw.stop()

	ref := runPass(w, seed, nil, hw, "reference")
	all := []pass{ref}
	var untraced, tracedPasses []pass
	var setups []float64
	cpu := map[string]float64{} // traced passes' CPU nanoseconds by layer

	phase := func(dst *[]pass, t *tracer, d time.Duration) error {
		start := time.Now()
		for len(*dst) == 0 || time.Since(start) < d {
			st := t // spans for the phase's first set-up batch only
			if len(*dst) > 0 {
				st = nil
			}
			setups = measureSetup(w, seed, st, setups)
			runtime.GC()
			var profile bytes.Buffer
			if t != nil {
				if err := pprof.StartCPUProfile(&profile); err != nil {
					return err
				}
			}
			p := runPass(w, seed, t, hw, fmt.Sprintf("pass%d", len(all)))
			if t != nil {
				pprof.StopCPUProfile()
				if err := foldCPU(cpu, profile.Bytes()); err != nil {
					return err
				}
			}
			if p.digest != ref.digest {
				p.failed = p.sims
			}
			*dst = append(*dst, p)
			all = append(all, p)
		}
		return nil
	}
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	if err := phase(&untraced, nil, untracedBudget); err != nil {
		return nil, err
	}
	if traced {
		if err := phase(&tracedPasses, tr, budget-untracedBudget); err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	for _, p := range all {
		res.Attempted += p.sims
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	wall := col(untraced, func(p pass) float64 { return p.wall })
	fmt.Printf("digest=%016x passes=%d sims=%d failed_sims=%d\n", ref.digest, len(untraced), res.Attempted, res.Failed)
	fmt.Printf("wall_s: median=%.4f p25=%.4f p75=%.4f over %d passes\n",
		quantile(wall, 0.5), quantile(wall, 0.25), quantile(wall, 0.75), len(wall))

	if !traced {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("wall_s", "s", median(wall))
		put("cpu_s", "s", median(col(untraced, func(p pass) float64 { return p.cpu })))
		put("peak_heap_mb", "MB", median(col(untraced, func(p pass) float64 { return float64(p.peakHeap) / 1e6 })))
		put("setup_s", "s", median(setups))
		printMetrics(res.Metrics)
		return res, nil
	}

	if err := layerMetrics(res.Metrics, tr, untraced, tracedPasses, cpu); err != nil {
		return nil, err
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spans)
	printMetrics(res.Metrics)
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, tr *tracer, untraced, traced []pass, cpu map[string]float64) error {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	// Counts are identical in every pass (the digest enforces it), so the
	// first traced pass stands for all; times are medians.
	p := traced[0]
	tWall := median(col(traced, func(p pass) float64 { return p.wall }))
	put("trace_overhead", "s", tWall-median(col(untraced, func(p pass) float64 { return p.wall })))

	put("sim.events", "count", float64(p.events))
	put("sim.events_per_s", "1/s", float64(p.events)/tWall)
	put("sim.events_per_pkt", "events/pkt", ratio(p.events, p.sentPkts))
	put("netem.pkts", "count", float64(p.netemPkts))
	put("netem.drop_ratio", "ratio", ratio(p.netemDrops, p.netemPkts))
	put("transport.sent_pkts", "count", float64(p.sentPkts))
	put("transport.loss_ratio", "ratio", ratio(p.lostPkts, p.sentPkts))
	put("transport.conns_opened", "count", float64(p.conns))
	put("obs.events", "count", float64(p.obsEvents))
	put("workload.arrivals", "count", float64(p.arrivals))
	put("workload.admit_ratio", "ratio", ratio(p.accepted, p.accepted+p.rejected))
	put("workload.retry_ratio", "ratio", ratio(p.retried, p.accepted+p.rejected))

	put("runtime.alloc_mb", "MB", median(col(traced, func(p pass) float64 { return float64(p.allocBytes) / 1e6 })))
	put("runtime.allocs", "count", median(col(traced, func(p pass) float64 { return float64(p.allocs) })))
	put("runtime.gc_cycles", "count", median(col(traced, func(p pass) float64 { return float64(p.gcCycles) })))
	put("runtime.gc_pause_ms", "ms", median(col(traced, func(p pass) float64 { return float64(p.gcPauseNs) / 1e6 })))

	sims := tr.durations("exp.Run")
	put("exp.sim_ms.p50", "ms", 1e3*median(sims))
	put("exp.sim_ms.max", "ms", 1e3*quantile(sims, 1))
	put("topo.build_us", "us", 1e6*median(tr.durations("topo.Build")))

	var total float64
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		return errors.New("the CPU profiles hold no samples")
	}
	for _, l := range layers {
		put("cpu."+l, "%", 100*cpu[l]/total)
	}

	for _, d := range layerBenches {
		v, err := d.measure()
		if err != nil {
			return err
		}
		put(d.name, d.unit, v)
	}
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func col(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// Each set-up batch makes at least minSetupReps repetitions, then more
// until setupBatch has passed or maxSetupReps is reached.
const (
	minSetupReps = 3
	maxSetupReps = 500
	setupBatch   = 50 * time.Millisecond
)

// measureSetup stands the pass's simulations up repeatedly and appends the
// host seconds of each repetition to times.
func measureSetup(w *workload, seed int64, tr *tracer, times []float64) []float64 {
	start := time.Now()
	for n := 0; n < minSetupReps || (n < maxSetupReps && time.Since(start) < setupBatch); n++ {
		cases := w.cases(seed)
		trace := fmt.Sprintf("setup%d", len(times))
		t0 := time.Now()
		root := tr.begin(trace, "setup", w.name, 0)
		for _, c := range cases {
			standUp(c.spec, tr, trace, root)
		}
		tr.end(root)
		times = append(times, time.Since(t0).Seconds())
	}
	return times
}

// runPass runs every simulation of the workload once, in order.
func runPass(w *workload, seed int64, tr *tracer, hw *heapWatch, trace string) pass {
	cases := w.cases(seed)
	var p pass
	h := fnv.New64a()
	var merged *obs.Snapshot
	if w.merge {
		merged = obs.NewRegistry().Snapshot()
	}
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	hw.reset()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	root := tr.begin(trace, "pass", w.name, 0)
	for _, c := range cases {
		p.sims++
		sp := tr.begin(trace, "exp.Run", c.name, root)
		res, err := runSim(c.spec)
		tr.end(sp)
		if err == nil {
			err = w.check(res, c.spec.Duration-c.spec.Warmup)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", w.name, c.name, err)
			h.Write([]byte("failed"))
			continue
		}
		hashResult(h, res)
		p.count(c, res)
		if merged != nil {
			sp := tr.begin(trace, "Snapshot.Merge", c.name, root)
			merged.Merge(res.Obs)
			tr.end(sp)
		}
	}
	tr.end(root)
	p.wall = time.Since(t0).Seconds()
	p.cpu = cpuSeconds() - cpu0
	p.peakHeap = hw.peak()
	p.digest = h.Sum64()
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		p.allocs = ms1.Mallocs - ms0.Mallocs
		p.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	return p
}

// runSim runs one simulation, turning a panic into an error.
func runSim(s exp.Spec) (res *exp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return exp.Run(s), nil
}

// count adds one finished simulation's public counters to the pass.
func (p *pass) count(c simCase, res *exp.Result) {
	p.events += res.Events
	firstHop := map[string]bool{}
	if res.Churn != nil {
		// Session connections are not exposed after the run, so their sends
		// are counted where every session path starts: its first link.
		for _, sv := range c.spec.Churn.Servers {
			for _, path := range sv.Paths {
				firstHop[path[0]] = true
			}
		}
		p.conns += uint64(res.Churn.Accepted)
		p.arrivals += uint64(res.Churn.Arrivals)
		p.accepted += uint64(res.Churn.Accepted)
		p.rejected += uint64(res.Churn.Rejected)
		p.retried += uint64(res.Churn.Retried)
	}
	if res.Net != nil {
		for _, name := range res.Net.LinkNames() {
			st := res.Net.Link(name).Stats()
			drops := st.DropsQueueFull + st.DropsRandom + st.DropsOutage + st.DropsBurst + st.DropsPolicer
			offered := st.EnqueuedPackets + drops
			p.netemPkts += offered
			p.netemDrops += drops
			if firstHop[name] {
				p.sentPkts += offered - st.Duplicated
			}
			if res.Churn != nil {
				p.lostPkts += drops
			}
		}
	}
	for _, conn := range res.Conns {
		p.conns++
		for _, sf := range conn.Subflows() {
			p.sentPkts += sf.SentPkts()
			p.lostPkts += sf.LostPkts()
		}
	}
	if c.rec != nil {
		p.obsEvents += uint64(c.rec.Total())
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapWatch records the largest live heap the GC reports: a finalizer on a
// throwaway object runs once after every GC cycle, reads
// /gc/heap/live:bytes (the heap marked live by that cycle) and re-arms.
type heapWatch struct {
	max     atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ _ [64]byte }

func startHeapWatch() *heapWatch {
	hw := &heapWatch{}
	hw.arm()
	return hw
}

func (hw *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		hw.sample()
		if !hw.stopped.Load() {
			hw.arm()
		}
	})
}

func (hw *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := hw.max.Load()
		if v <= cur || hw.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (hw *heapWatch) reset() { hw.max.Store(0) }

// peak returns the highest report since reset, counting the latest GC's.
func (hw *heapWatch) peak() uint64 {
	hw.sample()
	return hw.max.Load()
}

func (hw *heapWatch) stop() { hw.stopped.Store(true) }
