package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: a processor-sharing station conserves work — once every
// job has completed, the integrated busy time times the speed equals
// the sum of all submitted demands, regardless of arrival pattern,
// speed or multiprogramming limit.
func TestStationWorkConservationProperty(t *testing.T) {
	f := func(seed int64, rawSpeed, rawMPL uint8, nJobs uint8) bool {
		speed := 0.5 + float64(rawSpeed%8)/2 // 0.5 .. 4.0
		mpl := int(rawMPL % 5)               // 0 (unlimited) .. 4
		n := int(nJobs%40) + 1
		e := NewEngine()
		s := NewStation(e, "prop", speed, mpl, GlobalFIFO)
		rng := NewStream(seed)
		var total float64
		done := 0
		for i := 0; i < n; i++ {
			d := rng.Exp(2.0)
			total += d
			e.Schedule(rng.Exp(1.0), func() {
				s.Submit(0, d, func() { done++ })
			})
		}
		e.Run(1e9, 0)
		if done != n {
			return false
		}
		if s.Completed() != uint64(n) {
			return false
		}
		work := s.MeanInService() // force a final update
		_ = work
		// busyTime × speed == Σ demands
		delivered := s.Utilization() * e.Now() * speed
		return math.Abs(delivered-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO admission at an MPL-limited station never loses or
// duplicates a job, and completions never exceed submissions at any
// point in time.
func TestStationJobConservationProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs%60) + 1
		e := NewEngine()
		s := NewStation(e, "prop", 1, 2, GlobalFIFO)
		rng := NewStream(seed)
		completions := 0
		for i := 0; i < n; i++ {
			e.Schedule(rng.Exp(0.5), func() {
				s.Submit(0, rng.Exp(1.0), func() { completions++ })
			})
		}
		for e.Step() {
			inFlight := s.InService() + s.Queued()
			if inFlight < 0 || completions+inFlight > n {
				return false
			}
		}
		return completions == n && s.InService() == 0 && s.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore grants never exceed capacity concurrently and
// every queued waiter is eventually granted once releases catch up.
func TestSemaphoreInvariantProperty(t *testing.T) {
	f := func(seed int64, capRaw, nRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		n := int(nRaw%50) + 1
		e := NewEngine()
		s := NewSemaphore(e, "prop", capacity, GlobalFIFO)
		rng := NewStream(seed)
		granted := 0
		for i := 0; i < n; i++ {
			e.Schedule(rng.Exp(1.0), func() {
				s.Acquire(0, func() {
					granted++
					if s.Held() > capacity {
						panic("capacity exceeded")
					}
					// Hold the slot for a while, then release.
					e.Schedule(rng.Exp(0.5), s.Release)
				})
			})
		}
		e.Run(1e9, 0)
		return granted == n && s.Held() == 0 && s.Queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// orderScheduler is the surface the ordering property drives, so the
// engine and the reference run the identical workload.
type orderScheduler interface {
	now() float64
	pending() int
	schedule(delay float64, action func()) (cancel func())
	run(until float64)
}

type engineScheduler struct{ e *Engine }

func (s engineScheduler) now() float64  { return s.e.Now() }
func (s engineScheduler) pending() int  { return s.e.Pending() }
func (s engineScheduler) run(u float64) { s.e.Run(u, 0) }
func (s engineScheduler) schedule(d float64, a func()) func() {
	return s.e.Schedule(d, a).Cancel
}

// refScheduler is the specification: a plain slice scanned for the
// least (time, seq) entry on every pop. Cancelled entries stay queued
// until their time comes, and the clock clamps to until when nothing
// at or before it remains, as the engine documents.
type refScheduler struct {
	clock float64
	seq   uint64
	queue []*refEvent
}

type refEvent struct {
	time      float64
	seq       uint64
	action    func()
	cancelled bool
}

func (r *refScheduler) now() float64 { return r.clock }
func (r *refScheduler) pending() int { return len(r.queue) }

func (r *refScheduler) schedule(d float64, a func()) func() {
	ev := &refEvent{time: r.clock + d, seq: r.seq, action: a}
	r.seq++
	r.queue = append(r.queue, ev)
	return func() { ev.cancelled = true }
}

func (r *refScheduler) run(until float64) {
	for len(r.queue) > 0 {
		m := 0
		for i, ev := range r.queue {
			if best := r.queue[m]; ev.time < best.time || ev.time == best.time && ev.seq < best.seq {
				m = i
			}
		}
		ev := r.queue[m]
		if ev.time > until {
			break
		}
		r.queue = append(r.queue[:m], r.queue[m+1:]...)
		if !ev.cancelled {
			r.clock = ev.time
			ev.action()
		}
	}
	if r.clock < until {
		r.clock = until
	}
}

// Property: the engine fires exactly the event sequence, at exactly
// the times, of the naive (time, seq) reference for any schedule and
// cancel workload: time ties (broken by scheduling order), immediate
// cancels, cancels through stale handles whose slot the engine may
// have reused, schedules from inside actions, and stepwise Run(until)
// so the until boundary and clock clamping are exercised too.
func TestEngineOrderMatchesReferenceProperty(t *testing.T) {
	type firing struct {
		id   int
		time float64
	}
	run := func(s orderScheduler, seed int64, n int) []firing {
		rng := NewStream(seed)
		var order []firing
		var cancels []func()
		id := 0
		var churn func()
		churn = func() {
			// From inside an action, schedule a few follow-ups at mixed
			// horizons, sometimes cancelling one immediately, sometimes
			// duplicating a timestamp, and sometimes cancelling an old
			// handle that may already have fired.
			k := rng.Intn(3)
			for j := 0; j < k; j++ {
				myID := id
				id++
				d := rng.Exp(float64(1 + rng.Intn(50)))
				cancel := s.schedule(d, func() {
					order = append(order, firing{myID, s.now()})
					if len(order) < n {
						churn()
					}
				})
				cancels = append(cancels, cancel)
				if rng.Float64() < 0.2 {
					cancel()
				}
				if rng.Float64() < 0.3 {
					dupID := id
					id++
					s.schedule(d, func() { order = append(order, firing{dupID, s.now()}) })
				}
				if rng.Float64() < 0.1 {
					cancels[rng.Intn(len(cancels))]()
				}
			}
		}
		for i := 0; i < 10; i++ {
			seedID := id
			id++
			s.schedule(rng.Exp(2), func() {
				order = append(order, firing{seedID, s.now()})
				churn()
			})
		}
		for s.pending() > 0 && len(order) < n+50 {
			s.run(s.now() + 3)
			order = append(order, firing{-1, s.now()}) // window boundary
		}
		return order
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 20
		got := run(engineScheduler{NewEngine()}, seed, n)
		want := run(&refScheduler{}, seed, n)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
