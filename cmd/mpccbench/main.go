// Command mpccbench regenerates the paper's tables and figures, plus the
// extension experiments (e.g. -exp faults for the fault-recovery study).
//
// Usage:
//
//	mpccbench -list
//	mpccbench -exp fig5a [-dur 20s] [-warmup 8s] [-reps 3] [-seed 42] [-full]
//	mpccbench -exp all
//	mpccbench -exp fig5a -trace fig5a.jsonl   # JSONL probe trace (forces -workers 1)
//	mpccbench -exp fig5a -timeline fig5a.tl.jsonl   # windowed series dump per run (mpcctrace timeline)
//	mpccbench -exp fig5a -flightrec fig5a.fr.jsonl  # last ring of probe events across the sweep
//	mpccbench -exp fig14 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"mpcc/internal/exp"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		id      = flag.String("exp", "", "experiment id (or \"all\")")
		dur     = flag.Duration("dur", 20*time.Second, "virtual run duration")
		warmup  = flag.Duration("warmup", 8*time.Second, "warmup omitted from averages")
		reps    = flag.Int("reps", 1, "repetitions to average")
		seed    = flag.Int64("seed", 42, "base random seed")
		full    = flag.Bool("full", false, "paper-scale sweeps (576-config grids, 75 MB downloads)")
		csvdir  = flag.String("csvdir", "", "also write each table as CSV into this directory")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations per sweep (1 = sequential); output is identical for any value")
		shards  = flag.Int("shards", 0, "worker goroutines per simulation; output is identical for any value")
		tracef  = flag.String("trace", "", "write a JSONL probe trace of every simulation to this file (forces -workers 1 for run-order reproducibility)")
		timelf  = flag.String("timeline", "", "write each run's windowed series as a timeline-dump line to this file (mpcctrace timeline reads it; forces -workers 1)")
		flrecf  = flag.String("flightrec", "", "write the flight recorder — the last ~4k probe events across all runs — to this file on exit (forces -workers 1)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	exp.SetWorkers(*workers)
	exp.SetShards(*shards)

	// The observability taps share one wiring pattern: sinks shared by all
	// runs, a fresh bus+registry per run, run-start/run-end markers segmenting
	// the stream. Concurrent runs would interleave whole events safely but in
	// nondeterministic order, so any tap forces sequential execution.
	var sharedSinks []obs.Sink
	if *tracef != "" {
		f, err := os.Create(*tracef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		jw := obs.NewJSONLWriter(f)
		defer jw.Close()
		sharedSinks = append(sharedSinks, jw)
	}
	if *flrecf != "" {
		f, err := os.Create(*flrecf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %v\n", err)
			os.Exit(1)
		}
		fr := obs.NewFlightRecorder(obs.DefaultFlightRecorderSize)
		sharedSinks = append(sharedSinks, fr)
		defer func() {
			if err := fr.WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "flightrec: %v\n", err)
			}
			f.Close()
		}()
	}
	if *timelf != "" {
		f, err := os.Create(*timelf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runIdx := 0
		var buf []byte
		exp.SetSnapshotSink(func(_ int64, s *obs.Snapshot) {
			buf = obs.AppendTimeline(buf[:0], runIdx, s.Series)
			runIdx++
			if _, err := f.Write(buf); err != nil {
				fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
				os.Exit(1)
			}
		})
	}
	if len(sharedSinks) > 0 || *timelf != "" {
		exp.SetProbeFactory(func() *obs.Bus { return obs.NewBus(sharedSinks...) })
		exp.SetWorkers(1)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list || *id == "" {
		fmt.Println("experiments:")
		reg := exp.Registry()
		sort.Slice(reg, func(i, j int) bool { return reg[i].ID < reg[j].ID })
		for _, e := range reg {
			fmt.Printf("  %-22s %s\n", e.ID, e.Desc)
		}
		if *id == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := exp.Config{
		Duration: sim.FromDuration(*dur),
		Warmup:   sim.FromDuration(*warmup),
		Reps:     *reps,
		Seed:     *seed,
		Full:     *full,
	}

	run := func(e exp.Experiment) {
		start := time.Now()
		simsBefore := exp.SimsRun()
		for i, t := range e.Run(cfg) {
			t.Fprint(os.Stdout)
			fmt.Println()
			if *csvdir != "" {
				name := filepath.Join(*csvdir, fmt.Sprintf("%s_%d.csv", e.ID, i))
				f, err := os.Create(name)
				if err == nil {
					err = t.WriteCSV(f)
					f.Close()
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "csv %s: %v\n", name, err)
				}
			}
		}
		wall := time.Since(start).Seconds()
		sims := exp.SimsRun() - simsBefore
		rate := 0.0
		if wall > 0 {
			rate = float64(sims) / wall
		}
		fmt.Printf("[%s: %.1fs wall, %d sims, %.1f sims/s, %d workers]\n\n",
			e.ID, wall, sims, rate, exp.Workers())
	}

	if *id == "all" {
		for _, e := range exp.Registry() {
			run(e)
		}
		return
	}
	for _, e := range exp.Registry() {
		if e.ID == *id {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
	os.Exit(2)
}
