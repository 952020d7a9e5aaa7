package simtest

import (
	"strings"
	"testing"
)

// shardScenario is a hand-built two-component workload: two independent
// links, each carrying its own single-path flow, plus a rate fault and a
// policer so per-component fault scheduling and contract oracles both
// exercise.
func shardScenario() Scenario {
	return Scenario{
		Seed:       41,
		DurationMs: 1500,
		Links: []LinkSpec{
			{RateMbps: 8, DelayMs: 12, BufBytes: 16000},
			{RateMbps: 12, DelayMs: 8, BufBytes: 20000, PolicerMbps: 6, PolicerBurst: 9000},
		},
		Flows: []FlowSpec{
			{Proto: "mpcc-loss", Paths: [][]int{{0}}},
			{Proto: "mpcc-loss", Paths: [][]int{{1}}},
		},
		Faults: []FaultSpec{
			{Kind: FaultRate, Link: 0, AtMs: 400, DurMs: 300, RateMbps: 3},
		},
	}
}

// TestShardCountIdentityRandom sweeps generated scenarios through the
// shard-identity oracle: shards 1, 2 and 4 must produce identical traces
// and snapshots on every scenario the generator can emit.
func TestShardCountIdentityRandom(t *testing.T) {
	n := scenarioBudget(t, 30)
	for seed := int64(1); seed <= int64(n); seed++ {
		sc := FromSeed(seed)
		r := ShardIdentity(sc, 1, 2, 4)
		if r.Failed() {
			t.Fatalf("seed %d violates %v\nscenario: %+v\nrepro: %s\nfirst: %s",
				seed, r.Invariants(), sc, sc.ReproCommand(), r.Violations[0].Detail)
		}
	}
}

// TestShardIdentityMultiComponent pins the crafted two-component scenario:
// identical output at shards 0 (the package default), 1, 2 and 4, and a
// clean bill from the full oracle at every count, including the policer
// contract and the per-component rate fault.
func TestShardIdentityMultiComponent(t *testing.T) {
	r := ShardIdentity(shardScenario(), 0, 1, 2, 4)
	if r.Failed() {
		t.Fatalf("two-component scenario failed: %v\nfirst: %s", r.Invariants(), r.Violations[0].Detail)
	}
	if r.Events == 0 {
		t.Fatal("no probe events recorded")
	}
}

// TestShardsInReproCommand: the shard dimension rides along in the
// one-line repro, so a failure replays at the worker count it was found at.
func TestShardsInReproCommand(t *testing.T) {
	sc := shardScenario()
	sc.Shards = 4
	cmd := sc.ReproCommand()
	if !strings.Contains(cmd, `"shards":4`) {
		t.Fatalf("repro command lost the shard count: %s", cmd)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("sharded scenario does not validate: %v", err)
	}
	sc.Shards = -1
	if err := sc.Validate(); err == nil {
		t.Fatal("negative shard count must not validate")
	}
}

// TestShrinkerShardReduction: the worker count cannot change a run's
// output, so the shrinker never reduces Shards; a failing scenario keeps
// its recorded count through every accepted reduction and into the repro.
func TestShrinkerShardReduction(t *testing.T) {
	sc := shardScenario()
	sc.Shards = 2
	cur, steps := sc, 0
	for {
		next, ok := shrinkOnce(cur, InvQueueBound, false, func(c Scenario) bool { return true })
		if !ok {
			break
		}
		if next.Shards != 2 {
			t.Fatalf("shrinker changed Shards: %+v", next)
		}
		cur = next
		if steps++; steps > 100 {
			t.Fatal("shrinker failed to converge")
		}
	}
	if steps == 0 {
		t.Fatal("shrinkOnce found no reduction")
	}
	if !strings.Contains(cur.ReproCommand(), `"shards":2`) {
		t.Fatalf("repro lost the shard count: %s", cur.ReproCommand())
	}
}
