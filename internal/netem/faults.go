package netem

import "mpcc/internal/sim"

// FaultInjector schedules hard failures on links at virtual times: outages
// (the link blackholes everything between down and up), flap sequences
// (repeated short outages), and windows of Gilbert–Elliott burst loss. It is
// the scripted counterpart of ScheduleRates: experiments declare a fault
// timeline up front and the sim engine executes it deterministically.
//
// Every method returns a stop function that cancels the not-yet-executed
// part of the schedule (events already fired are not undone).
type FaultInjector struct {
	eng *sim.Engine
}

// NewFaultInjector returns an injector driving faults on eng's clock.
func NewFaultInjector(eng *sim.Engine) *FaultInjector {
	return &FaultInjector{eng: eng}
}

// checkEngine rejects links living on a different engine than the
// injector's clock: exp.Run puts each interaction component on its own
// engine, so that would mutate link state from another component's event
// stream. Build one injector per engine (l.Engine()) instead.
func (fi *FaultInjector) checkEngine(l *Link) {
	if fi.eng != l.eng {
		panic("netem: fault injector engine differs from link " + l.Name + "'s engine")
	}
}

// Outage takes l down at absolute virtual time at and restores it at
// at+dur. A non-positive dur schedules a permanent outage.
func (fi *FaultInjector) Outage(l *Link, at, dur sim.Time) (stop func()) {
	fi.checkEngine(l)
	stopped := false
	fi.eng.At(at, func() {
		if !stopped {
			l.SetDown(true)
		}
	})
	if dur > 0 {
		fi.eng.At(at+dur, func() {
			if !stopped {
				l.SetDown(false)
			}
		})
	}
	return func() { stopped = true }
}

// Flaps schedules n down/up cycles on l starting at start: down for downFor,
// then up for upFor, repeated. The link is guaranteed up after the last
// cycle completes.
func (fi *FaultInjector) Flaps(l *Link, start sim.Time, n int, downFor, upFor sim.Time) (stop func()) {
	fi.checkEngine(l)
	stopped := false
	at := start
	for i := 0; i < n; i++ {
		downAt, upAt := at, at+downFor
		fi.eng.At(downAt, func() {
			if !stopped {
				l.SetDown(true)
			}
		})
		fi.eng.At(upAt, func() {
			if !stopped {
				l.SetDown(false)
			}
		})
		at = upAt + upFor
	}
	return func() { stopped = true }
}

// BurstLoss enables Gilbert–Elliott burst loss on l at absolute time at and
// disables it again at at+dur. A non-positive dur leaves it enabled.
func (fi *FaultInjector) BurstLoss(l *Link, at, dur sim.Time, ge GilbertElliott) (stop func()) {
	fi.checkEngine(l)
	stopped := false
	fi.eng.At(at, func() {
		if !stopped {
			l.SetGilbertElliott(&ge)
		}
	})
	if dur > 0 {
		fi.eng.At(at+dur, func() {
			if !stopped {
				l.SetGilbertElliott(nil)
			}
		})
	}
	return func() { stopped = true }
}
