package sim

import (
	"reflect"
	"testing"
)

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TestSingleShardGroupMatchesEngine: a one-engine group must be the plain
// engine — same events, same clock, same Processed
// count, regardless of the requested worker count.
func TestSingleShardGroupMatchesEngine(t *testing.T) {
	build := func() (*Engine, *[]int) {
		e := NewEngine(99)
		var log []int
		var spawn func(at Time, id int)
		spawn = func(at Time, id int) {
			e.At(at, func() {
				log = append(log, id)
				if id < 200 {
					spawn(e.Now()+Time(mix64(uint64(id))%uint64(5*Millisecond))+1, id*2+1)
				}
			})
		}
		for i := 1; i <= 20; i++ {
			spawn(Time(i)*Millisecond, i)
		}
		return e, &log
	}

	plain, plainLog := build()
	plain.Run(80 * Millisecond)

	grouped, groupLog := build()
	g := NewGroup(grouped)
	g.SetWorkers(4)
	g.Run(80 * Millisecond)

	if !reflect.DeepEqual(*plainLog, *groupLog) {
		t.Fatalf("single-shard group diverged from plain engine:\nplain %v\ngroup %v", *plainLog, *groupLog)
	}
	if plain.Now() != grouped.Now() {
		t.Fatalf("clock mismatch: plain %v group %v", plain.Now(), grouped.Now())
	}
	if plain.Processed != grouped.Processed {
		t.Fatalf("processed mismatch: plain %d group %d", plain.Processed, grouped.Processed)
	}
}

// TestGroupIdleShardsReachHorizon: shards with no events still end with
// their clock at the horizon, like Engine.Run.
func TestGroupIdleShardsReachHorizon(t *testing.T) {
	a, b := NewEngine(1), NewEngine(2)
	g := NewGroup(a, b)
	g.SetWorkers(2)
	fired := false
	a.At(3*Millisecond, func() { fired = true })
	g.Run(10 * Millisecond)
	if !fired {
		t.Fatalf("event did not fire")
	}
	if a.Now() != 10*Millisecond || b.Now() != 10*Millisecond {
		t.Fatalf("clocks: a=%v b=%v, want both 10ms", a.Now(), b.Now())
	}
}

// TestGroupReraisesWorkerPanic: a panic inside one engine's event surfaces
// on the caller of Run after the other workers finish their engines.
func TestGroupReraisesWorkerPanic(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	engines[1].At(5*Millisecond, func() { panic("boom") })
	fired := false
	engines[2].At(5*Millisecond, func() { fired = true })
	g := NewGroup(engines...)
	g.SetWorkers(2)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", r)
		}
		if !fired {
			t.Fatal("a sibling engine was abandoned by the panicking worker's peers")
		}
	}()
	g.Run(10 * Millisecond)
}
