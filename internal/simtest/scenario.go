// Package simtest is the deterministic simulation-testing subsystem: it
// turns the probe firehose of internal/obs into machine-checked invariants
// (Oracle), generates seeded random scenarios — topology, link parameters,
// fault timelines, workload mix — to drive the whole stack through them
// (Scenario, Check), shrinks a failing scenario to a minimal reproducer
// (Shrink), and gates replay determinism: same seed ⇒ byte-identical trace
// hash, and sequential vs parallel execution identity.
//
// The design follows FoundationDB-style deterministic simulation testing:
// because every run is a pure function of its Scenario (single-threaded
// engine, seeded RNG, no wall clock), any failure is replayable from a
// one-line repro command, and a minimizer can search the scenario space by
// simply re-running candidates. See DESIGN.md "Correctness architecture".
package simtest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"mpcc/internal/exp"
	"mpcc/internal/netem"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
	"mpcc/internal/topo"
	"mpcc/internal/workload"
)

// LinkSpec declares one emulated link of a scenario.
type LinkSpec struct {
	RateMbps float64 `json:"rate"`
	DelayMs  float64 `json:"delay"`
	BufBytes int     `json:"buf"`
	LossPct  float64 `json:"loss,omitempty"`
	JitterMs float64 `json:"jitter,omitempty"`
	// Hostile-path impairments (see DESIGN.md "Hostile-path model"):
	// independent per-packet reordering with netem-style gap/correlation
	// selection, and per-packet duplication.
	ReorderPct  float64 `json:"reo,omitempty"`      // reorder probability ×100
	ReorderCorr float64 `json:"reoCorr,omitempty"`  // correlation of successive draws
	ReorderGap  int     `json:"reoGap,omitempty"`   // every Gap-th packet reorders
	ReoEarlyMs  float64 `json:"reoEarly,omitempty"` // cap on early arrival
	DupPct      float64 `json:"dup,omitempty"`      // duplication probability ×100
	// Token-bucket contracts (DESIGN.md "Adversarial path model"): a
	// policer drops nonconforming packets with zero added delay, a shaper
	// defers them until the bucket refills. Rate 0 = disabled.
	PolicerMbps  float64 `json:"polRate,omitempty"`
	PolicerBurst int     `json:"polBurst,omitempty"` // bytes
	ShaperMbps   float64 `json:"shpRate,omitempty"`
	ShaperBurst  int     `json:"shpBurst,omitempty"` // bytes
}

// reorders reports whether either reorder trigger is configured.
func (l LinkSpec) reorders() bool { return l.ReorderPct > 0 || l.ReorderGap > 0 }

// policed and shaped report whether a token-bucket contract is configured.
func (l LinkSpec) policed() bool { return l.PolicerMbps > 0 }
func (l LinkSpec) shaped() bool  { return l.ShaperMbps > 0 }

// FlowSpec declares one connection: its protocol, one link-index path per
// subflow, an optional start offset and file size (0 = bulk), and whether
// the oracle must see the file fully delivered by the horizon (set by the
// generator only under conservative parameters).
type FlowSpec struct {
	Proto   string  `json:"proto"`
	Paths   [][]int `json:"paths"`
	StartMs float64 `json:"start,omitempty"`
	FileKB  int     `json:"file,omitempty"`
	Expect  bool    `json:"expect,omitempty"`
	// ACK-path impairments, applied to every path of the flow: a fixed
	// asymmetric reverse-path delay add-on, uniform reverse jitter (which may
	// reorder ACKs), and ACK compression quantizing feedback arrivals onto
	// slot boundaries.
	AckDelayMs    float64 `json:"ackDelay,omitempty"`
	AckJitterMs   float64 `json:"ackJitter,omitempty"`
	AckCompressMs float64 `json:"ackComp,omitempty"`
}

// ackImpaired reports whether any ACK-path impairment is configured.
func (f FlowSpec) ackImpaired() bool {
	return f.AckDelayMs > 0 || f.AckJitterMs > 0 || f.AckCompressMs > 0
}

// Fault kinds of FaultSpec.
const (
	FaultOutage   = "outage"   // link blackholed for DurMs
	FaultFlaps    = "flaps"    // Cycles × (down DurMs, up UpMs)
	FaultBurst    = "burst"    // Gilbert–Elliott burst loss for DurMs
	FaultRate     = "rate"     // bandwidth cut to RateMbps for DurMs
	FaultHandover = "handover" // Cycles LEO handovers every DurMs, alternating base ↔ (RateMbps, DelayMs)
	FaultTrace    = "trace"    // bandwidth trace replay: Trace rates stepping every DurMs, then base restored
)

// FaultSpec schedules one deterministic fault on a link.
type FaultSpec struct {
	Kind     string  `json:"kind"`
	Link     int     `json:"link"`
	AtMs     float64 `json:"at"`
	DurMs    float64 `json:"dur"` // handover/trace: the step period
	Cycles   int     `json:"n,omitempty"`
	UpMs     float64 `json:"up,omitempty"`
	RateMbps float64 `json:"rate,omitempty"`
	Severity float64 `json:"sev,omitempty"` // burst badness in (0,1]
	// Handover alternate state: each step swaps the link between its base
	// (RateMbps/DelayMs of the LinkSpec) and this rate/delay pair.
	DelayMs float64 `json:"delayMs,omitempty"`
	// Trace samples in Mbps, one per DurMs step starting at AtMs; after the
	// last step the base rate is restored (the trace plays exactly once).
	Trace []float64 `json:"trace,omitempty"`
}

// EndMs returns when the fault's last scheduled change fires.
func (f FaultSpec) EndMs() float64 {
	switch f.Kind {
	case FaultFlaps:
		return f.AtMs + float64(f.Cycles)*(f.DurMs+f.UpMs)
	case FaultHandover:
		return f.AtMs + float64(f.Cycles-1)*f.DurMs
	case FaultTrace:
		return f.AtMs + float64(len(f.Trace))*f.DurMs
	}
	return f.AtMs + f.DurMs
}

// ratesAffecting reports whether the fault rewrites the link's serialization
// rate. Outages, flaps and burst loss only suppress delivery, which cannot
// break an upper-bound delivery envelope.
func (f FaultSpec) ratesAffecting() bool {
	switch f.Kind {
	case FaultRate, FaultHandover, FaultTrace:
		return true
	}
	return false
}

// ChurnScenario overlays an open-loop session workload on a scenario: one
// accept point per link (sessions to "server" k run single-path over link
// k), Poisson or two-state MMPP arrivals, bounded-Pareto object sizes, and
// admission limits small enough that overload sheds. The churn dimension
// rides along in the repro JSON like every other; the churn servers span
// every link, so a churn scenario is a single interaction component.
type ChurnScenario struct {
	Proto      string  `json:"proto"`
	RatePerSec float64 `json:"rate"`
	// HiRatePerSec > 0 selects a two-state MMPP alternating RatePerSec and
	// HiRatePerSec with DwellMs mean state dwell.
	HiRatePerSec float64 `json:"hiRate,omitempty"`
	DwellMs      float64 `json:"dwell,omitempty"`
	Alpha        float64 `json:"alpha"`
	SizeMinKB    int     `json:"minKB"`
	SizeMaxKB    int     `json:"maxKB"`
	MaxConns     int     `json:"conns"`
	BudgetKB     int     `json:"budgetKB"`
	PerConnKB    int     `json:"rcvKB"`
	MaxRetries   int     `json:"retries"`
	RetryBaseMs  float64 `json:"retryMs"`
}

// Scenario is one fully deterministic simulation configuration. It is a
// plain value: the same Scenario always produces the same run, and the
// shrinker minimizes failing scenarios by mutating this struct directly.
type Scenario struct {
	Seed       int64       `json:"seed"`
	DurationMs float64     `json:"dur"`
	Links      []LinkSpec  `json:"links"`
	Flows      []FlowSpec  `json:"flows"`
	Faults     []FaultSpec `json:"faults,omitempty"`
	// Churn, if set, adds session arrivals and departures under admission
	// control on top of the static flows (which may be absent when churn is
	// present — the workload itself creates connections).
	Churn *ChurnScenario `json:"churn,omitempty"`
	// Shards is the worker count that advances the run's component
	// engines (exp.Spec.Shards; 0 = the package default). Every value must
	// be output-identical (ShardIdentity), so the generator draws from
	// {1, 2, 4} to exercise sequential, partial, and saturated worker
	// pools. The field rides along in the SIMTEST_SCENARIO repro JSON
	// unchanged by the shrinker.
	Shards int `json:"shards,omitempty"`
}

// Duration returns the run horizon in virtual time.
func (s Scenario) Duration() sim.Time { return sim.FromSeconds(s.DurationMs / 1000) }

// ReorderOnly reports whether at least one link reorders while nothing in
// the configuration can destroy a packet except drop-tail overflow: no
// random or burst loss, no duplication (duplicates claim buffer space and
// can evict originals), no token buckets (a policer destroys nonconforming
// packets outright; a shaper can defer delivery past the progress bound
// under deficit), no faults. On such scenarios the hostile-path oracles
// apply: if the run also records zero drops, every loss declaration is
// spurious and must be repaired, and forward progress must never stall.
func (s Scenario) ReorderOnly() bool {
	reordered := false
	for _, l := range s.Links {
		if l.LossPct > 0 || l.DupPct > 0 || l.policed() || l.shaped() {
			return false
		}
		if l.reorders() {
			reordered = true
		}
	}
	return reordered && len(s.Faults) == 0
}

// soleRateFault reports whether fault idx is the only rate-rewriting fault
// on its link. Only then can the trace-envelope oracle bound the link's
// delivered bytes by the traced rates alone — a concurrent rate or handover
// fault could lift the rate mid-trace and legitimately beat the envelope.
func (s Scenario) soleRateFault(idx int) bool {
	for j, g := range s.Faults {
		if j != idx && g.Link == s.Faults[idx].Link && g.ratesAffecting() {
			return false
		}
	}
	return true
}

// FlowName returns the deterministic name of flow i ("f0", "f1", …).
func FlowName(i int) string { return fmt.Sprintf("f%d", i) }

// JSON returns the scenario's compact canonical encoding (the payload of
// ReproCommand).
func (s Scenario) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("simtest: scenario marshal: " + err.Error()) // plain-value struct cannot fail
	}
	return string(b)
}

// ParseScenario decodes a scenario from its JSON form.
func ParseScenario(data string) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal([]byte(data), &s); err != nil {
		return Scenario{}, fmt.Errorf("simtest: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate checks the structural sanity of a scenario (link references in
// range, positive parameters), so a hand-edited repro fails loudly instead
// of panicking deep inside the emulator.
func (s Scenario) Validate() error {
	if s.DurationMs <= 0 {
		return fmt.Errorf("simtest: non-positive duration %v", s.DurationMs)
	}
	if s.Shards < 0 {
		return fmt.Errorf("simtest: negative shard count %d", s.Shards)
	}
	if len(s.Links) == 0 {
		return fmt.Errorf("simtest: no links")
	}
	for i, l := range s.Links {
		if l.RateMbps <= 0 || l.DelayMs < 0 || l.BufBytes <= 0 || l.LossPct < 0 || l.LossPct > 100 {
			return fmt.Errorf("simtest: link %d has invalid parameters %+v", i, l)
		}
		if l.ReorderPct < 0 || l.ReorderPct > 100 || l.ReorderCorr < 0 || l.ReorderCorr > 1 ||
			l.ReorderGap < 0 || l.ReoEarlyMs < 0 || l.DupPct < 0 || l.DupPct > 100 {
			return fmt.Errorf("simtest: link %d has invalid impairments %+v", i, l)
		}
		if l.PolicerMbps < 0 || l.PolicerBurst < 0 || l.ShaperMbps < 0 || l.ShaperBurst < 0 {
			return fmt.Errorf("simtest: link %d has invalid token-bucket contract %+v", i, l)
		}
	}
	if len(s.Flows) == 0 && s.Churn == nil {
		return fmt.Errorf("simtest: no flows and no churn workload")
	}
	if c := s.Churn; c != nil {
		if c.RatePerSec <= 0 || c.Alpha <= 0 || c.SizeMinKB <= 0 || c.SizeMaxKB < c.SizeMinKB {
			return fmt.Errorf("simtest: churn has invalid arrival/size parameters %+v", *c)
		}
		if c.HiRatePerSec < 0 || (c.HiRatePerSec > 0 && c.DwellMs <= 0) {
			return fmt.Errorf("simtest: churn MMPP needs a positive dwell %+v", *c)
		}
		if c.MaxConns <= 0 || c.BudgetKB <= 0 || c.PerConnKB <= 0 ||
			c.MaxRetries < 0 || c.RetryBaseMs < 0 {
			return fmt.Errorf("simtest: churn has invalid admission parameters %+v", *c)
		}
	}
	for i, f := range s.Flows {
		if len(f.Paths) == 0 {
			return fmt.Errorf("simtest: flow %d has no paths", i)
		}
		if f.AckDelayMs < 0 || f.AckJitterMs < 0 || f.AckCompressMs < 0 {
			return fmt.Errorf("simtest: flow %d has negative ACK impairments %+v", i, f)
		}
		for _, path := range f.Paths {
			if len(path) == 0 {
				return fmt.Errorf("simtest: flow %d has an empty path", i)
			}
			for _, li := range path {
				if li < 0 || li >= len(s.Links) {
					return fmt.Errorf("simtest: flow %d references link %d of %d", i, li, len(s.Links))
				}
			}
		}
	}
	for i, f := range s.Faults {
		if f.Link < 0 || f.Link >= len(s.Links) {
			return fmt.Errorf("simtest: fault %d references link %d of %d", i, f.Link, len(s.Links))
		}
		if f.AtMs < 0 || f.DurMs < 0 {
			return fmt.Errorf("simtest: fault %d scheduled in the past %+v", i, f)
		}
		switch f.Kind {
		case FaultHandover:
			// DurMs is the step period (ScheduleHandovers panics on zero) and
			// the alternate state must be a live link.
			if f.DurMs <= 0 || f.Cycles < 1 || f.RateMbps <= 0 || f.DelayMs < 0 {
				return fmt.Errorf("simtest: handover fault %d has invalid schedule %+v", i, f)
			}
		case FaultTrace:
			if f.DurMs <= 0 || len(f.Trace) == 0 {
				return fmt.Errorf("simtest: trace fault %d has no samples or no step period %+v", i, f)
			}
			for _, mbps := range f.Trace {
				if mbps < 0 {
					return fmt.Errorf("simtest: trace fault %d has negative rate %g", i, mbps)
				}
			}
		}
	}
	return nil
}

// ReproCommand returns the one-line shell command that replays exactly this
// scenario under the full oracle.
func (s Scenario) ReproCommand() string {
	return fmt.Sprintf("SIMTEST_SCENARIO='%s' go test ./internal/simtest -run TestReproScenario", s.JSON())
}

// String renders a compact human summary.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d dur=%.1fs links=[", s.Seed, s.DurationMs/1000)
	for i, l := range s.Links {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0fMbps/%.0fms/%dB", l.RateMbps, l.DelayMs, l.BufBytes)
		if l.LossPct > 0 {
			fmt.Fprintf(&b, "/%.1f%%", l.LossPct)
		}
		if l.reorders() {
			fmt.Fprintf(&b, "/reo%.0f%%", l.ReorderPct)
		}
		if l.DupPct > 0 {
			fmt.Fprintf(&b, "/dup%.0f%%", l.DupPct)
		}
		if l.policed() {
			fmt.Fprintf(&b, "/pol%.0fMbps", l.PolicerMbps)
		}
		if l.shaped() {
			fmt.Fprintf(&b, "/shp%.0fMbps", l.ShaperMbps)
		}
	}
	b.WriteString("] flows=[")
	for i, f := range s.Flows {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%s×%d", FlowName(i), f.Proto, len(f.Paths))
		if f.FileKB > 0 {
			fmt.Fprintf(&b, ":%dKB", f.FileKB)
		}
	}
	b.WriteString("]")
	if len(s.Faults) > 0 {
		b.WriteString(" faults=[")
		for i, f := range s.Faults {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s@l%d+%.0fms", f.Kind, f.Link, f.AtMs)
		}
		b.WriteString("]")
	}
	if c := s.Churn; c != nil {
		fmt.Fprintf(&b, " churn=[%s:%.0f/s", c.Proto, c.RatePerSec)
		if c.HiRatePerSec > 0 {
			fmt.Fprintf(&b, "~%.0f/s", c.HiRatePerSec)
		}
		fmt.Fprintf(&b, ":%d-%dKB:conns%d]", c.SizeMinKB, c.SizeMaxKB, c.MaxConns)
	}
	return b.String()
}

// ---- seeded generation ----

// protoPool is the protocol mix scenarios draw from, weighted toward the
// paper's protagonist so the MPCC learning loop sees the most fuzzing.
var protoPool = []exp.Protocol{
	exp.MPCCLoss, exp.MPCCLoss, exp.MPCCLoss,
	exp.MPCCLatency, exp.MPCCLatency,
	exp.Vivace,
	exp.LIA, exp.OLIA,
	exp.Reno, exp.Cubic, exp.BBR,
}

// FromSeed deterministically generates the scenario identified by seed: the
// same seed always yields the same scenario, so a corpus of seeds is a
// corpus of scenarios. Parameter ranges are tuned to finish one scenario in
// tens of milliseconds of wall time while still covering the interesting
// regimes: buffers from half to twice the BDP, loss up to 2%, outages,
// flaps, burst-loss windows and bandwidth cuts, and one to three competing
// flows mixing protocols, subflow counts and workloads.
func FromSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed, DurationMs: 2200 + rng.Float64()*1300}

	nLinks := 1 + rng.Intn(3)
	for i := 0; i < nLinks; i++ {
		rate := 3 + rng.Float64()*27  // Mbps
		delay := 2 + rng.Float64()*38 // ms
		bdp := rate * 1e6 * delay / 1000 / 8
		buf := int(bdp * (0.5 + rng.Float64()*1.5))
		if buf < 6000 {
			buf = 6000
		}
		l := LinkSpec{RateMbps: rate, DelayMs: delay, BufBytes: buf}
		if rng.Float64() < 0.3 {
			l.LossPct = rng.Float64() * 2
		}
		if rng.Float64() < 0.15 {
			l.JitterMs = rng.Float64() * 3
		}
		if rng.Float64() < 0.25 {
			l.ReorderPct = 1 + rng.Float64()*24
			l.ReorderCorr = rng.Float64() * 0.5
			if rng.Float64() < 0.3 {
				l.ReorderGap = 5 + rng.Intn(46)
			}
			early := delay
			if early > 20 {
				early = 20
			}
			l.ReoEarlyMs = 1 + rng.Float64()*early
		}
		if rng.Float64() < 0.15 {
			l.DupPct = rng.Float64() * 10
		}
		if rng.Float64() < 0.12 {
			// Token-bucket contract below the wire rate, so the bucket — not
			// drop-tail — binds. Bursts from two MTUs up to one contract BDP;
			// the floor keeps a policed flow startable.
			cRate := rate * (0.45 + rng.Float64()*0.45)
			cBDP := cRate * 1e6 * delay / 1000 / 8
			burst := 3000 + rng.Intn(int(cBDP)+1500)
			if rng.Float64() < 0.5 {
				l.PolicerMbps, l.PolicerBurst = cRate, burst
			} else {
				l.ShaperMbps, l.ShaperBurst = cRate, burst
			}
		}
		s.Links = append(s.Links, l)
	}

	nFlows := 1 + rng.Intn(3)
	for i := 0; i < nFlows; i++ {
		f := FlowSpec{Proto: string(protoPool[rng.Intn(len(protoPool))])}
		nSub := 1
		if rng.Float64() < 0.6 {
			nSub = 2
		}
		for j := 0; j < nSub; j++ {
			path := []int{rng.Intn(nLinks)}
			// Occasionally route a subflow across two links in series, so
			// multi-hop conservation is exercised too.
			if nLinks > 1 && rng.Float64() < 0.2 {
				other := rng.Intn(nLinks)
				if other != path[0] {
					path = append(path, other)
				}
			}
			f.Paths = append(f.Paths, path)
		}
		if rng.Float64() < 0.3 {
			f.StartMs = rng.Float64() * 0.2 * s.DurationMs
		}
		if rng.Float64() < 0.5 {
			f.FileKB = 20 + rng.Intn(130)
		}
		if rng.Float64() < 0.2 {
			switch rng.Intn(3) {
			case 0:
				f.AckDelayMs = 1 + rng.Float64()*20
			case 1:
				f.AckJitterMs = 0.5 + rng.Float64()*5
			case 2:
				f.AckCompressMs = 1 + rng.Float64()*7
			}
		}
		s.Flows = append(s.Flows, f)
	}

	nFaults := rng.Intn(4)
	for i := 0; i < nFaults; i++ {
		f := FaultSpec{Link: rng.Intn(nLinks)}
		f.AtMs = (0.15 + rng.Float64()*0.3) * s.DurationMs
		budget := 0.55*s.DurationMs - f.AtMs // all faults end by 55% of the run
		switch rng.Intn(6) {
		case 0:
			f.Kind = FaultOutage
			f.DurMs = 100 + rng.Float64()*500
		case 1:
			f.Kind = FaultFlaps
			f.Cycles = 2 + rng.Intn(3)
			f.DurMs = 60 + rng.Float64()*140 // down phase
			f.UpMs = 100 + rng.Float64()*200 // up phase
			if total := float64(f.Cycles) * (f.DurMs + f.UpMs); total > budget {
				scale := budget / total
				f.DurMs *= scale
				f.UpMs *= scale
			}
		case 2:
			f.Kind = FaultBurst
			f.DurMs = 150 + rng.Float64()*450
			f.Severity = 0.3 + rng.Float64()*0.7
		case 3:
			f.Kind = FaultRate
			f.DurMs = 150 + rng.Float64()*450
			f.RateMbps = s.Links[f.Link].RateMbps * (0.3 + rng.Float64()*0.5)
		case 4:
			// LEO handover cycle: an even step count returns the link to its
			// base state, so post-fault expectations stay valid.
			f.Kind = FaultHandover
			f.Cycles = 2 * (1 + rng.Intn(2))
			f.DurMs = 120 + rng.Float64()*230
			f.RateMbps = s.Links[f.Link].RateMbps * (0.4 + rng.Float64()*0.8)
			f.DelayMs = s.Links[f.Link].DelayMs * (0.7 + rng.Float64()*0.8)
			if span := float64(f.Cycles-1) * f.DurMs; span > budget {
				f.DurMs = budget / float64(f.Cycles-1)
			}
		case 5:
			// Bandwidth-trace replay: a short random walk around the base
			// rate, restored when the trace runs out.
			f.Kind = FaultTrace
			f.DurMs = 80 + rng.Float64()*170
			n := 3 + rng.Intn(4)
			for j := 0; j < n; j++ {
				f.Trace = append(f.Trace, s.Links[f.Link].RateMbps*(0.3+rng.Float64()*0.8))
			}
			if span := float64(len(f.Trace)) * f.DurMs; span > budget {
				f.DurMs = budget / float64(len(f.Trace))
			}
		}
		if f.Kind != FaultFlaps && f.Kind != FaultHandover && f.Kind != FaultTrace && f.DurMs > budget {
			f.DurMs = budget
		}
		s.Faults = append(s.Faults, f)
	}

	s.markExpectations()

	// Drawn last, so the shard dimension never perturbs the draws above:
	// every seed still generates the exact scenario it did before sharding
	// existed, now sometimes advanced by several workers.
	if rng.Float64() < 0.25 {
		s.Shards = []int{1, 2, 4}[rng.Intn(3)]
	}

	// Churn is drawn after Shards for the same reason: pre-churn seeds keep
	// their exact scenarios. Parameters stay small — tens of sessions per
	// run, admission caps of a handful of connections — so a scenario still
	// finishes in tens of milliseconds while exercising accept/reject/retry,
	// both arrival generators, and the teardown paths of every session.
	if rng.Float64() < 0.2 {
		c := &ChurnScenario{
			Proto:       string(protoPool[rng.Intn(len(protoPool))]),
			RatePerSec:  10 + rng.Float64()*40,
			Alpha:       1.1 + rng.Float64()*0.5,
			SizeMinKB:   8 + rng.Intn(17),
			MaxConns:    4 + rng.Intn(9),
			PerConnKB:   32 + rng.Intn(65),
			MaxRetries:  1 + rng.Intn(4),
			RetryBaseMs: 20 + rng.Float64()*40,
		}
		c.SizeMaxKB = c.SizeMinKB * (10 + rng.Intn(41))
		// A budget of fewer connection-buffers than the connection cap makes
		// the byte budget the binding limit on some scenarios.
		c.BudgetKB = c.PerConnKB * (2 + rng.Intn(c.MaxConns))
		if rng.Float64() < 0.4 {
			c.HiRatePerSec = c.RatePerSec * (2 + rng.Float64()*3)
			c.DwellMs = 100 + rng.Float64()*300
		}
		s.Churn = c
	}
	return s
}

// markExpectations flags the file flows whose completion the oracle must
// see. The conditions are deliberately conservative — small file, early
// start, low loss, no burst loss on its links, ample post-fault slack — so
// a missed delivery indicates a liveness bug (data stranded by fault
// recovery), not a slow-but-healthy run.
func (s *Scenario) markExpectations() {
	lastFaultEnd := 0.0
	burstLink := make(map[int]bool)
	for _, f := range s.Faults {
		if end := f.EndMs(); end > lastFaultEnd {
			lastFaultEnd = end
		}
		if f.Kind == FaultBurst {
			burstLink[f.Link] = true
		}
	}
	if lastFaultEnd > 0.55*s.DurationMs || s.DurationMs < 2200 {
		return
	}
	// Per-link subflow counts, for the fair-share feasibility check below.
	users := make([]int, len(s.Links))
	for _, f := range s.Flows {
		for _, path := range f.Paths {
			for _, li := range path {
				users[li]++
			}
		}
	}
	for i := range s.Flows {
		f := &s.Flows[i]
		if f.FileKB == 0 || f.FileKB > 48 || f.StartMs > 0.1*s.DurationMs {
			continue
		}
		// Fair-share feasibility with a 10× margin: recovering a tail loss
		// can cost several backed-off RTOs, so a file that needs more than a
		// tenth of its remaining horizon at bottleneck fair share is not a
		// safe bet even on clean links.
		share := 0.0
		for _, path := range f.Paths {
			ps := s.Links[path[0]].RateMbps / float64(users[path[0]])
			for _, li := range path[1:] {
				if r := s.Links[li].RateMbps / float64(users[li]); r < ps {
					ps = r
				}
			}
			if ps > share {
				share = ps
			}
		}
		txMs := float64(f.FileKB) * 1024 * 8 / (share * 1e6) * 1000
		if txMs > 0.1*(s.DurationMs-f.StartMs) {
			continue
		}
		clean := true
		for _, path := range f.Paths {
			for _, li := range path {
				l := s.Links[li]
				// Duplicates consume buffer (evicting originals under load)
				// and heavy reordering drags completion through repeated
				// spurious recoveries, so neither qualifies for a hard
				// delivery deadline.
				// A policer discards the file's own bursts and a shaper can
				// hold them in deficit, so neither qualifies either.
				if burstLink[li] || l.LossPct > 1 || l.DupPct > 0 || l.ReorderPct > 15 ||
					l.policed() || l.shaped() {
					clean = false
				}
			}
		}
		if clean {
			f.Expect = true
		}
	}
}

// ---- scenario → experiment spec ----

// geFromSeverity maps a scalar severity in (0,1] onto Gilbert–Elliott
// parameters: higher severity means longer and lossier bad states.
func geFromSeverity(sev float64) netem.GilbertElliott {
	return netem.GilbertElliott{
		PGoodBad: 0.01 + 0.04*sev,
		PBadGood: 0.25,
		LossGood: 0,
		LossBad:  0.4 + 0.6*sev,
	}
}

// buildSpec lowers the scenario onto the experiment harness: a custom
// parallel/serial-link topology, per-link parameter tweaks, the scripted
// fault timeline, and the flow list. The oracle (optional) is bound to the
// built network inside Tweak so its live checks can read link state.
func (s Scenario) buildSpec(bus *obs.Bus, o *Oracle) exp.Spec {
	linkNames := make([]string, len(s.Links))
	for i := range s.Links {
		linkNames[i] = fmt.Sprintf("l%d", i)
	}
	flows := make([]exp.FlowSpec, len(s.Flows))
	for i, f := range s.Flows {
		paths := make([][]string, len(f.Paths))
		for j, p := range f.Paths {
			names := make([]string, len(p))
			for k, li := range p {
				names[k] = linkNames[li]
			}
			paths[j] = names
		}
		flows[i] = exp.FlowSpec{
			Name:      FlowName(i),
			Proto:     exp.Protocol(f.Proto),
			Paths:     paths,
			StartAt:   sim.FromSeconds(f.StartMs / 1000),
			FileBytes: int64(f.FileKB) * 1024,
		}
		if f.ackImpaired() {
			ad := sim.FromSeconds(f.AckDelayMs / 1000)
			aj := sim.FromSeconds(f.AckJitterMs / 1000)
			ac := sim.FromSeconds(f.AckCompressMs / 1000)
			flows[i].PathTweak = func(p *netem.Path) {
				p.SetAckDelay(ad)
				p.SetAckJitter(aj)
				p.SetAckCompression(ac)
			}
		}
	}
	tweak := func(net *topo.Net) {
		for i, ls := range s.Links {
			l := net.Link(linkNames[i])
			l.SetRate(ls.RateMbps * 1e6)
			l.SetDelay(sim.FromSeconds(ls.DelayMs / 1000))
			l.SetBuffer(ls.BufBytes)
			l.SetLoss(ls.LossPct / 100)
			l.SetJitter(sim.FromSeconds(ls.JitterMs / 1000))
			if ls.reorders() {
				l.SetReorder(&netem.Reorder{
					Prob:     ls.ReorderPct / 100,
					Corr:     ls.ReorderCorr,
					Gap:      ls.ReorderGap,
					MaxEarly: sim.FromSeconds(ls.ReoEarlyMs / 1000),
				})
			}
			if ls.DupPct > 0 {
				l.SetDuplicate(ls.DupPct / 100)
			}
			if ls.policed() {
				l.SetPolicer(ls.PolicerMbps*1e6, ls.PolicerBurst)
			}
			if ls.shaped() {
				l.SetShaper(ls.ShaperMbps*1e6, ls.ShaperBurst)
			}
		}
		for fidx, f := range s.Faults {
			l := net.Link(linkNames[f.Link])
			// Faults schedule on the faulted link's own engine: links live
			// on per-component engines and net.Eng is only component 0's.
			fi := netem.NewFaultInjector(l.Engine())
			at := sim.FromSeconds(f.AtMs / 1000)
			dur := sim.FromSeconds(f.DurMs / 1000)
			switch f.Kind {
			case FaultOutage:
				fi.Outage(l, at, dur)
			case FaultFlaps:
				fi.Flaps(l, at, f.Cycles, dur, sim.FromSeconds(f.UpMs/1000))
			case FaultBurst:
				fi.BurstLoss(l, at, dur, geFromSeverity(f.Severity))
			case FaultRate:
				orig := l.Rate()
				cut := f.RateMbps * 1e6
				l.Engine().At(at, func() { l.SetRate(cut) })
				l.Engine().At(at+dur, func() { l.SetRate(orig) })
			case FaultHandover:
				// Steps alternate alternate-state ↔ base-state, so an even
				// cycle count leaves the link where it started.
				base := s.Links[f.Link]
				steps := []netem.HandoverStep{
					{RateBps: f.RateMbps * 1e6, Delay: sim.FromSeconds(f.DelayMs / 1000)},
					{RateBps: base.RateMbps * 1e6, Delay: sim.FromSeconds(base.DelayMs / 1000)},
				}
				netem.ScheduleHandovers(l.Engine(), l, steps, at, dur, f.Cycles)
				if o != nil {
					// The oracle holds the exact fire times; every handover
					// event must land on one, and all must fire by the horizon.
					times := make([]sim.Time, 0, f.Cycles)
					for i := 0; i < f.Cycles; i++ {
						if t := at + sim.Time(i)*dur; t < s.Duration() {
							times = append(times, t)
						}
					}
					o.expectHandovers(linkNames[f.Link], times)
				}
			case FaultTrace:
				pts := make([]netem.RatePoint, 0, len(f.Trace)+1)
				for i, mbps := range f.Trace {
					pts = append(pts, netem.RatePoint{At: at + sim.Time(i)*dur, RateBps: mbps * 1e6})
				}
				// The trace plays once; its end restores the base rate.
				end := at + sim.Time(len(f.Trace))*dur
				pts = append(pts, netem.RatePoint{At: end, RateBps: s.Links[f.Link].RateMbps * 1e6})
				netem.ScheduleRates(l.Engine(), l, pts, 0)
				if o != nil && s.soleRateFault(fidx) {
					armTraceEnvelope(l.Engine(), o, l, linkNames[f.Link],
						at, dur, f.Trace, s.Links[f.Link].BufBytes)
				}
			}
		}
		if o != nil {
			o.bindNet(net)
		}
	}
	spec := exp.Spec{
		Seed:     s.Seed,
		Duration: s.Duration(),
		Topo:     &topo.Topology{Name: "simtest", Links: linkNames},
		Probes:   bus,
		Tweak:    tweak,
		Flows:    flows,
		Shards:   s.Shards,
	}
	if c := s.Churn; c != nil {
		servers := make([]exp.ServerSpec, len(s.Links))
		for i := range s.Links {
			servers[i] = exp.ServerSpec{
				Name:          "srv-" + linkNames[i],
				Paths:         [][]string{{linkNames[i]}},
				MaxConns:      c.MaxConns,
				BudgetBytes:   int64(c.BudgetKB) * 1024,
				PerConnRcvBuf: int64(c.PerConnKB) * 1024,
			}
		}
		cs := &exp.ChurnSpec{
			Servers:    servers,
			RatePerSec: c.RatePerSec,
			Sizes: workload.BoundedPareto{
				Alpha: c.Alpha,
				Min:   float64(c.SizeMinKB) * 1024,
				Max:   float64(c.SizeMaxKB) * 1024,
			},
			Proto:      exp.Protocol(c.Proto),
			MaxRetries: c.MaxRetries,
			RetryBase:  sim.FromSeconds(c.RetryBaseMs / 1000),
			RetryCap:   sim.Second,
			// Watchdogs bound sessions stranded by faults (an outaged link
			// would otherwise hold its server slot to the horizon).
			HandshakeTimeout: 1500 * sim.Millisecond,
			IdleTimeout:      1200 * sim.Millisecond,
		}
		if c.HiRatePerSec > 0 {
			cs.States = []workload.MMPPState{
				{RatePerSec: c.RatePerSec, MeanDwell: sim.FromSeconds(c.DwellMs / 1000)},
				{RatePerSec: c.HiRatePerSec, MeanDwell: sim.FromSeconds(c.DwellMs / 1000)},
			}
		}
		// Arm the post-close pool audits unless a shaper is present: a
		// shaper in deficit defers delivery arbitrarily long, so a fixed
		// drain window after close would report still-in-flight packets as
		// leaks.
		shaped := false
		for _, l := range s.Links {
			if l.shaped() {
				shaped = true
			}
		}
		if !shaped {
			cs.DrainCheckAfter = 800 * sim.Millisecond
		}
		spec.Churn = cs
	}
	return spec
}
