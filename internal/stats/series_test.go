package stats

import (
	"math"
	"math/rand"
	"testing"

	"mpcc/internal/sim"
)

func TestSeriesBucketing(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.Add(100*sim.Millisecond, 10)
	s.Add(900*sim.Millisecond, 5)
	s.Add(1500*sim.Millisecond, 7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	rates := s.Rates()
	if rates[0] != 15 || rates[1] != 7 {
		t.Fatalf("rates = %v", rates)
	}
	if s.Sum() != 22 {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestSeriesIgnoresBeforeStart(t *testing.T) {
	s := NewSeries(10*sim.Second, sim.Second)
	s.Add(5*sim.Second, 99)
	s.Add(10*sim.Second, 1)
	if s.Sum() != 1 {
		t.Fatalf("Sum = %v, want 1", s.Sum())
	}
}

func TestSeriesMeanRate(t *testing.T) {
	s := NewSeries(0, sim.Second)
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*sim.Second, 100)
	}
	if got := s.MeanRate(10 * sim.Second); got != 100 {
		t.Fatalf("MeanRate = %v, want 100", got)
	}
	// Skip the first 5 seconds (warmup omission like the paper's first 30s).
	if got := s.MeanRateSince(5*sim.Second, 10*sim.Second); got != 100 {
		t.Fatalf("MeanRateSince = %v, want 100", got)
	}
	if got := s.MeanRate(0); got != 0 {
		t.Fatalf("zero-duration MeanRate = %v, want 0", got)
	}
}

func TestSeriesSumSinceAndRatesSince(t *testing.T) {
	s := NewSeries(0, sim.Second)
	s.Add(0, 1)
	s.Add(sim.Second, 2)
	s.Add(2*sim.Second, 4)
	if got := s.SumSince(sim.Second); got != 6 {
		t.Fatalf("SumSince = %v, want 6", got)
	}
	rs := s.RatesSince(sim.Second)
	if len(rs) != 2 || rs[0] != 2 || rs[1] != 4 {
		t.Fatalf("RatesSince = %v", rs)
	}
}

// refSeries is the dense series: every bucket from the start is stored.
type refSeries struct {
	start, bucket sim.Time
	buckets       []float64
}

func (r *refSeries) add(at sim.Time, v float64) {
	if at < r.start {
		return
	}
	idx := int((at - r.start) / r.bucket)
	for len(r.buckets) <= idx {
		r.buckets = append(r.buckets, 0)
	}
	r.buckets[idx] += v
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSeriesMatchesDenseReference checks that keeping leading buckets
// implicit changes no result bit: late first samples, out-of-order samples
// before the first stored bucket, and samples before the start, against a
// series that stores every bucket.
func TestSeriesMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		start := sim.Time(rng.Intn(3)) * sim.Second
		width := sim.Time(1+rng.Intn(200)) * sim.Millisecond
		s := NewSeries(start, width)
		ref := &refSeries{start: start, bucket: width}
		first := sim.Time(rng.Int63n(int64(20 * sim.Second)))
		for i, n := 0, rng.Intn(40); i < n; i++ {
			at := first + sim.Time(rng.Int63n(int64(5*sim.Second)))
			if rng.Intn(6) == 0 {
				at = sim.Time(rng.Int63n(int64(first + 1))) // earlier, maybe before start
			}
			v := rng.NormFloat64() * 1e4
			s.Add(at, v)
			ref.add(at, v)
		}
		from := sim.Time(rng.Int63n(int64(30 * sim.Second)))
		if s.Len() != len(ref.buckets) {
			t.Fatalf("trial %d: Len %d, dense %d", trial, s.Len(), len(ref.buckets))
		}
		dense := &Series{bucket: width, start: start, buckets: ref.buckets}
		if math.Float64bits(s.Sum()) != math.Float64bits(dense.Sum()) ||
			math.Float64bits(s.SumSince(from)) != math.Float64bits(dense.SumSince(from)) {
			t.Fatalf("trial %d: Sum/SumSince differ", trial)
		}
		if !sameBits(s.Rates(), dense.Rates()) || !sameBits(s.RatesSince(from), dense.RatesSince(from)) {
			t.Fatalf("trial %d: Rates/RatesSince differ", trial)
		}
	}
}

// TestSeriesLateStartStoresOneBucket: a series first touched 60 s in keeps
// one stored bucket, not 600 leading zeros.
func TestSeriesLateStartStoresOneBucket(t *testing.T) {
	s := NewSeries(0, 100*sim.Millisecond)
	s.Add(60*sim.Second, 1)
	if len(s.buckets) != 1 || s.Len() != 601 {
		t.Fatalf("stored %d buckets, Len %d; want 1, 601", len(s.buckets), s.Len())
	}
}

func TestSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero width")
		}
	}()
	NewSeries(0, 0)
}

func TestWindowedMax(t *testing.T) {
	w := NewWindowedMax(10 * sim.Second)
	w.Update(0, 5)
	w.Update(1*sim.Second, 3)
	w.Update(2*sim.Second, 8)
	if got := w.Get(2*sim.Second, 0); got != 8 {
		t.Fatalf("max = %v, want 8", got)
	}
	w.Update(3*sim.Second, 2)
	if got := w.Get(3*sim.Second, 0); got != 8 {
		t.Fatalf("max = %v, want 8", got)
	}
	// After the 8 expires, the later 2 remains.
	if got := w.Get(14*sim.Second, 0); got != 2 {
		t.Fatalf("max after expiry = %v, want 2", got)
	}
}

func TestWindowedMin(t *testing.T) {
	w := NewWindowedMin(5 * sim.Second)
	w.Update(0, 30)
	w.Update(sim.Second, 25)
	w.Update(2*sim.Second, 40)
	if got := w.Get(2*sim.Second, 0); got != 25 {
		t.Fatalf("min = %v, want 25", got)
	}
	if got := w.Get(8*sim.Second, 0); got != 40 {
		t.Fatalf("min after expiry = %v, want 40", got)
	}
}

func TestWindowedFilterDefault(t *testing.T) {
	w := NewWindowedMin(sim.Second)
	if got := w.Get(0, 123); got != 123 {
		t.Fatalf("empty filter should return default, got %v", got)
	}
	if !w.Empty() {
		t.Fatal("filter should be empty")
	}
}

func TestWindowedFilterKeepsLastSample(t *testing.T) {
	// Even if the only sample is older than the window, Get returns it:
	// the deque never expires its final element so a quiet source still has
	// an estimate.
	w := NewWindowedMax(sim.Second)
	w.Update(0, 7)
	if got := w.Get(100*sim.Second, 0); got != 7 {
		t.Fatalf("last sample should persist, got %v", got)
	}
}
