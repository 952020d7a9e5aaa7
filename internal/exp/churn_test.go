package exp

import (
	"fmt"
	"testing"

	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

func churnTestConfig() Config {
	return Config{Duration: 4 * sim.Second, Warmup: 0, Reps: 1, Seed: 42}
}

func TestChurnLedgerBalances(t *testing.T) {
	for _, rho := range []float64{0.6, 2.0} {
		res := Run(ChurnSpecAt(churnTestConfig(), rho))
		st := res.Churn
		if st == nil {
			t.Fatal("no churn stats on a churn run")
		}
		if st.Accepted != st.Completed+st.Aborted+st.Active {
			t.Fatalf("rho=%v: accepted %d != completed %d + aborted %d + active %d",
				rho, st.Accepted, st.Completed, st.Aborted, st.Active)
		}
		if st.Arrivals == 0 || st.Completed == 0 {
			t.Fatalf("rho=%v: degenerate run: %+v", rho, st)
		}
		if st.Leaks != 0 {
			t.Fatalf("rho=%v: %d of %d drain checks found leaked pool buffers",
				rho, st.Leaks, st.LeakChecks)
		}
		if st.LeakChecks == 0 {
			t.Fatalf("rho=%v: no drain checks ran", rho)
		}
		for _, sv := range st.Servers {
			if sv.PeakBytes > sv.BudgetBytes {
				t.Fatalf("rho=%v: server %s peak %d exceeded budget %d",
					rho, sv.Name, sv.PeakBytes, sv.BudgetBytes)
			}
			if sv.PeakActive > sv.MaxConns {
				t.Fatalf("rho=%v: server %s peak conns %d exceeded cap %d",
					rho, sv.Name, sv.PeakActive, sv.MaxConns)
			}
		}
	}
}

func TestChurnOverloadSheds(t *testing.T) {
	res := Run(ChurnSpecAt(churnTestConfig(), 2.0))
	st := res.Churn
	if st.Rejected == 0 || st.Retried == 0 {
		t.Fatalf("2x overload shed nothing: rejected=%d retried=%d", st.Rejected, st.Retried)
	}
	if st.PeakActive > churnNumServers*churnMaxConns {
		t.Fatalf("peak active %d exceeded farm-wide cap %d",
			st.PeakActive, churnNumServers*churnMaxConns)
	}
}

// TestChurnDeterminism pins the workload to the run seed: identical for any
// worker count and any Shards value, and sensitive to the seed.
func TestChurnDeterminism(t *testing.T) {
	cfg := churnTestConfig()
	base := Run(ChurnSpecAt(cfg, 1.3)).Churn

	prev := Workers()
	SetWorkers(1)
	seq := Run(ChurnSpecAt(cfg, 1.3)).Churn
	SetWorkers(prev)
	if churnScalar(seq) != churnScalar(base) {
		t.Fatalf("worker count changed churn stats:\n%+v\nvs\n%+v", seq, base)
	}

	sharded := ChurnSpecAt(cfg, 1.3)
	sharded.Shards = 4
	sh := Run(sharded).Churn
	if churnScalar(sh) != churnScalar(base) {
		t.Fatalf("Shards changed churn stats:\n%+v\nvs\n%+v", sh, base)
	}

	reseeded := ChurnSpecAt(cfg, 1.3)
	reseeded.Seed += 7
	if churnScalar(Run(reseeded).Churn) == churnScalar(base) {
		t.Fatal("different seed produced identical churn stats")
	}
}

// churnScalar renders the full stats (per-server ledgers and FCT
// percentiles included) for identity comparison.
func churnScalar(st *ChurnStats) string {
	return fmt.Sprintf("%+v", *st)
}

// TestChurnObsMetrics checks the registry picks up the session events and
// that its ledger agrees with the driver's.
func TestChurnObsMetrics(t *testing.T) {
	spec := ChurnSpecAt(churnTestConfig(), 1.3)
	spec.Probes = obs.NewBus()
	res := Run(spec)
	st := res.Churn
	if res.Obs == nil {
		t.Fatal("no obs snapshot")
	}
	for want, name := range map[int]string{
		st.Accepted:  "sessions.accepted",
		st.Rejected:  "sessions.rejected",
		st.Retried:   "sessions.retried",
		st.Completed: "sessions.completed",
		st.Aborted:   "sessions.aborted",
	} {
		if got := int(res.Obs.Counters[name]); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := int(res.Obs.Gauges["conns.active_peak"]); got != st.PeakActive {
		t.Errorf("conns.active_peak = %d, want %d", got, st.PeakActive)
	}
	if got := res.Obs.Histograms["session_fct_seconds"].Count; got != st.Completed {
		t.Errorf("session_fct_seconds count = %d, want %d", got, st.Completed)
	}
}
