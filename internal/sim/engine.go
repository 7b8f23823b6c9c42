// Package sim is a deterministic discrete-event simulation core. It
// provides the event engine, reproducible random streams and the
// processor-sharing service station used to model the paper's
// application and database servers: each server admits a bounded
// number of requests "at the same time via time-sharing" from FIFO
// waiting queues (§2, §5), which is exactly a processor-sharing
// station with a multiprogramming limit and FIFO admission.
//
// The engine replaces the paper's physical WebSphere/DB2 testbed: the
// Trade benchmark simulator (internal/trade) is built on these
// primitives and produces the "measured" numbers that every prediction
// method is scored against.
//
// The event core is allocation-free in steady state: fired and
// discarded events return to a per-engine free list and are reused by
// later Schedule calls, and the priority queue is a concrete-typed
// binary heap rather than container/heap, so no interface boxing or
// dynamic dispatch happens per event. That heap is the only scheduler:
// the single-engine simulator and every shard of a Coordinator run on
// it, firing in (time, seq) order. One Engine is strictly
// single-goroutine; concurrency lives a level up, where independent
// engines run in parallel (internal/parallel) or advance in
// conservative windows under a Coordinator.
package sim

import (
	"fmt"
	"math"
)

// Event is a handle to a scheduled occurrence, returned by
// Engine.Schedule so callers can cancel the event before it fires. It
// is a small value type; the zero Event is a valid no-op handle.
//
// Handles stay safe across event reuse: the engine recycles fired
// events through a free list, and each reuse bumps a generation
// counter, so a Cancel through a stale handle (after the event fired
// or was discarded) is a no-op rather than a cancellation of whatever
// the slot was reused for.
type Event struct {
	ev   *event
	gen  uint64
	time float64
}

// Cancel prevents the event's action from running when its time
// arrives. Cancelling an already-fired, already-cancelled or zero
// event is a no-op.
func (e Event) Cancel() {
	if e.ev != nil && e.ev.gen == e.gen {
		e.ev.cancelled = true
	}
}

// Time returns the simulated time at which the event fires (fired).
func (e Event) Time() float64 { return e.time }

// event is the pooled scheduler entry behind an Event handle.
type event struct {
	time      float64
	seq       uint64
	gen       uint64
	action    func()
	cancelled bool
	next      *event // free-list link; nil while queued
}

// Engine is a sequential discrete-event scheduler. Events fire in
// non-decreasing time order; ties break in scheduling order, which
// keeps runs fully deterministic for a fixed seed. The zero value is
// not usable; create engines with NewEngine.
type Engine struct {
	now    float64
	queue  []*event // concrete binary heap ordered by (time, seq)
	free   *event   // recycled events
	nextSq uint64
	fired  uint64

	// Plain instrumentation counters (the engine is single-goroutine);
	// flushMetrics publishes deltas to the process-wide atomics.
	reuses, allocs                             uint64
	heapMax                                    int
	flushedFired, flushedReuses, flushedAllocs uint64
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far, a cheap progress
// and liveness metric for long runs.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet discarded).
func (e *Engine) Pending() int {
	return len(e.queue)
}

// PeekTime returns the fire time of the earliest pending event, or
// +Inf when the queue is empty. The shard coordinator uses it to skip
// idle synchronisation windows.
func (e *Engine) PeekTime() float64 {
	if len(e.queue) > 0 {
		return e.queue[0].time
	}
	return math.Inf(1)
}

// HeapHighWater returns the maximum number of simultaneously pending
// events observed over the engine's lifetime. Per-shard engines each
// track their own high water; aggregation across shards goes through
// obs max-gauge semantics (or Coordinator.HeapHighWater) rather than
// summing, since the marks are concurrent-depth measurements.
func (e *Engine) HeapHighWater() int { return e.heapMax }

// Schedule runs action after delay units of simulated time. It panics
// on negative or NaN delays — those are always modelling bugs, never
// recoverable conditions.
func (e *Engine) Schedule(delay float64, action func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	return e.enqueue(e.now+delay, action)
}

// ScheduleAt runs action at absolute simulated time t. It panics when
// t is in the past or NaN. The shard coordinator uses it to deliver
// cross-shard messages at their precomputed fire times.
func (e *Engine) ScheduleAt(t float64, action func()) Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: invalid fire time %v (now %v)", t, e.now))
	}
	return e.enqueue(t, action)
}

func (e *Engine) enqueue(t float64, action func()) Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		e.reuses++
	} else {
		ev = &event{}
		e.allocs++
	}
	ev.time = t
	ev.seq = e.nextSq
	ev.action = action
	ev.cancelled = false
	e.nextSq++
	e.push(ev)
	return Event{ev: ev, gen: ev.gen, time: ev.time}
}

// release returns a popped event to the free list, invalidating any
// outstanding handles to it.
func (e *Engine) release(ev *event) {
	ev.action = nil
	ev.cancelled = false
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Run executes events until the clock would pass until, the event
// queue drains, or limit events have fired (limit <= 0 means no
// limit). It returns the number of events fired by this call.
func (e *Engine) Run(until float64, limit uint64) uint64 {
	var fired uint64
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.time > until {
			break
		}
		e.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.time
		action := next.action
		e.release(next) // before the action, so it can reuse the slot
		action()
		e.fired++
		fired++
		if limit > 0 && fired >= limit {
			break
		}
	}
	if e.now < until && (len(e.queue) == 0 || e.queue[0].time > until) {
		e.now = until
	}
	e.flushMetrics()
	return fired
}

// Step executes the single next event, if any, and reports whether one
// fired.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		next := e.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.time
		action := next.action
		e.release(next)
		action()
		e.fired++
		return true
	}
	return false
}

// eventBefore is the heap order: earlier time first, scheduling order
// breaking ties.
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push inserts ev into the heap (sift-up).
func (e *Engine) push(ev *event) {
	e.queue = append(e.queue, ev)
	if len(e.queue) > e.heapMax {
		e.heapMax = len(e.queue)
	}
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// pop removes and returns the earliest event (sift-down).
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	last := len(q) - 1
	ev := q[last]
	q[last] = nil
	e.queue = q[:last]
	if last == 0 {
		return top
	}
	q = e.queue
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && eventBefore(q[r], q[child]) {
			child = r
		}
		if !eventBefore(q[child], ev) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = ev
	return top
}
