package simtest

// The shrinker: given a scenario that violates an invariant, find a smaller
// scenario that still violates the *same* invariant. Because a Check is a
// pure function of its Scenario, shrinking is plain greedy search — apply a
// reduction, re-run, keep it if the target invariant still fires. Matching
// on the target invariant (not just "still fails") stops the minimizer from
// wandering onto an unrelated failure mode: halving the duration of a
// delivery-expectation failure, say, would "fail" for the trivial reason
// that the file no longer has time to finish.

// shrinkBudget caps the number of candidate Checks one Shrink may spend.
// Scenarios are tens of milliseconds each, so 300 keeps the worst case
// around ten seconds of wall time.
const shrinkBudget = 300

// Shrunk is the outcome of a Shrink: the minimal scenario found, its audit
// report, and how much work the search spent.
type Shrunk struct {
	Scenario Scenario
	Report   *Report
	Steps    int // accepted reductions
	Checks   int // candidate runs spent
}

// Shrink minimizes sc, which must violate the target invariant under
// CheckOpts(sc, opts) — callers pass the first entry of Report.Invariants().
// The options carry through to every candidate run, since an injected
// buffer-bound override is often what makes the scenario fail at all.
func Shrink(sc Scenario, target string, opts Options) Shrunk {
	checks := 0
	fails := func(c Scenario) bool {
		if checks >= shrinkBudget {
			return false
		}
		checks++
		return CheckOpts(c, opts).Has(target)
	}
	steps := 0
	for checks < shrinkBudget {
		reduced, ok := shrinkOnce(sc, target, len(opts.BufferBound) > 0, fails)
		if !ok {
			break
		}
		sc = reduced
		steps++
	}
	return Shrunk{Scenario: sc, Report: CheckOpts(sc, opts), Steps: steps, Checks: checks}
}

// shrinkOnce tries every single-step reduction of sc in a fixed order and
// returns the first one that still violates the target. Ordering matters for
// minimality: structural deletions (faults, flows, paths, links) come before
// parameter simplifications, so the search removes whole moving parts before
// polishing what remains.
func shrinkOnce(sc Scenario, target string, keepLinks bool, fails func(Scenario) bool) (Scenario, bool) {
	for i := range sc.Faults {
		if c := dropFault(sc, i); fails(c) {
			return c, true
		}
	}
	// The churn workload is a whole moving subsystem; removing it outright is
	// the biggest single reduction available. Only legal while static flows
	// remain (Validate requires at least one of the two).
	if sc.Churn != nil && len(sc.Flows) > 0 {
		c := clone(sc)
		c.Churn = nil
		if fails(c) {
			return c, true
		}
	}
	if len(sc.Flows) > 1 {
		for i := range sc.Flows {
			if c := dropFlow(sc, i); fails(c) {
				return c, true
			}
		}
	}
	for i, f := range sc.Flows {
		if len(f.Paths) > 1 {
			for j := range f.Paths {
				if c := dropPath(sc, i, j); fails(c) {
					return c, true
				}
			}
		}
	}
	// Dropping a link renumbers the survivors, which would silently detach
	// any name-keyed buffer-bound override — skip when overrides are active.
	if !keepLinks {
		for i := range sc.Links {
			if c, ok := dropLink(sc, i); ok && fails(c) {
				return c, true
			}
		}
	}
	if target != InvDelivery {
		// Halving the horizon of a delivery failure trivially "fails" by
		// starving the transfer of time, so it is excluded for that target.
		if c := sc; true {
			c.DurationMs = c.DurationMs / 2
			if c.DurationMs >= 200 && fails(c) {
				return c, true
			}
		}
		for i, f := range sc.Flows {
			if f.Expect {
				c := clone(sc)
				c.Flows[i].Expect = false
				if fails(c) {
					return c, true
				}
			}
			if f.FileKB > 0 && !f.Expect {
				c := clone(sc)
				c.Flows[i].FileKB = 0
				if fails(c) {
					return c, true
				}
			}
		}
	}
	if anyLoss(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].LossPct = 0
		}
		if fails(c) {
			return c, true
		}
	}
	if anyJitter(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].JitterMs = 0
		}
		if fails(c) {
			return c, true
		}
	}
	if anyReorder(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].ReorderPct, c.Links[i].ReorderCorr = 0, 0
			c.Links[i].ReorderGap, c.Links[i].ReoEarlyMs = 0, 0
		}
		if fails(c) {
			return c, true
		}
	}
	if anyDup(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].DupPct = 0
		}
		if fails(c) {
			return c, true
		}
	}
	if anyPolicer(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].PolicerMbps, c.Links[i].PolicerBurst = 0, 0
		}
		if fails(c) {
			return c, true
		}
	}
	if anyShaper(sc) {
		c := clone(sc)
		for i := range c.Links {
			c.Links[i].ShaperMbps, c.Links[i].ShaperBurst = 0, 0
		}
		if fails(c) {
			return c, true
		}
	}
	for i, f := range sc.Flows {
		if f.ackImpaired() {
			c := clone(sc)
			c.Flows[i].AckDelayMs, c.Flows[i].AckJitterMs, c.Flows[i].AckCompressMs = 0, 0, 0
			if fails(c) {
				return c, true
			}
		}
	}
	for i, f := range sc.Flows {
		if f.StartMs > 0 {
			c := clone(sc)
			c.Flows[i].StartMs = 0
			if fails(c) {
				return c, true
			}
		}
	}
	if ch := sc.Churn; ch != nil {
		if ch.HiRatePerSec > 0 {
			// Collapse the MMPP back to plain Poisson at the base rate.
			c := clone(sc)
			c.Churn.HiRatePerSec, c.Churn.DwellMs = 0, 0
			if fails(c) {
				return c, true
			}
		}
		if ch.RatePerSec >= 2 {
			c := clone(sc)
			c.Churn.RatePerSec = c.Churn.RatePerSec / 2
			if c.Churn.HiRatePerSec > 0 {
				c.Churn.HiRatePerSec = c.Churn.HiRatePerSec / 2
			}
			if fails(c) {
				return c, true
			}
		}
		if ch.MaxRetries > 0 {
			c := clone(sc)
			c.Churn.MaxRetries = 0
			if fails(c) {
				return c, true
			}
		}
	}
	return sc, false
}

// clone deep-copies the scenario's slices so candidate mutations never alias
// the original.
func clone(sc Scenario) Scenario {
	c := sc
	c.Links = append([]LinkSpec(nil), sc.Links...)
	c.Flows = make([]FlowSpec, len(sc.Flows))
	for i, f := range sc.Flows {
		c.Flows[i] = f
		c.Flows[i].Paths = make([][]int, len(f.Paths))
		for j, p := range f.Paths {
			c.Flows[i].Paths[j] = append([]int(nil), p...)
		}
	}
	c.Faults = append([]FaultSpec(nil), sc.Faults...)
	for i := range c.Faults {
		c.Faults[i].Trace = append([]float64(nil), sc.Faults[i].Trace...)
	}
	if sc.Churn != nil {
		ch := *sc.Churn
		c.Churn = &ch
	}
	return c
}

func dropFault(sc Scenario, i int) Scenario {
	c := clone(sc)
	c.Faults = append(c.Faults[:i], c.Faults[i+1:]...)
	return c
}

func dropFlow(sc Scenario, i int) Scenario {
	c := clone(sc)
	c.Flows = append(c.Flows[:i], c.Flows[i+1:]...)
	return c
}

func dropPath(sc Scenario, i, j int) Scenario {
	c := clone(sc)
	f := &c.Flows[i]
	f.Paths = append(f.Paths[:j], f.Paths[j+1:]...)
	return c
}

// dropLink removes link i if no flow path uses it, remapping the higher
// link indices in paths and faults down by one. Faults on the dropped link
// go with it.
func dropLink(sc Scenario, i int) (Scenario, bool) {
	for _, f := range sc.Flows {
		for _, p := range f.Paths {
			for _, li := range p {
				if li == i {
					return sc, false
				}
			}
		}
	}
	if len(sc.Links) == 1 {
		return sc, false
	}
	c := clone(sc)
	c.Links = append(c.Links[:i], c.Links[i+1:]...)
	for fi := range c.Flows {
		for _, p := range c.Flows[fi].Paths {
			for k, li := range p {
				if li > i {
					p[k] = li - 1
				}
			}
		}
	}
	var faults []FaultSpec
	for _, f := range c.Faults {
		if f.Link == i {
			continue
		}
		if f.Link > i {
			f.Link--
		}
		faults = append(faults, f)
	}
	c.Faults = faults
	return c, true
}

func anyLoss(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.LossPct > 0 {
			return true
		}
	}
	return false
}

func anyJitter(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.JitterMs > 0 {
			return true
		}
	}
	return false
}

func anyReorder(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.reorders() {
			return true
		}
	}
	return false
}

func anyDup(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.DupPct > 0 {
			return true
		}
	}
	return false
}

func anyPolicer(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.policed() {
			return true
		}
	}
	return false
}

func anyShaper(sc Scenario) bool {
	for _, l := range sc.Links {
		if l.shaped() {
			return true
		}
	}
	return false
}
