package sim

import (
	"math"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run(10, 0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order = %v", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(5, func() { got = append(got, "a") })
	e.Schedule(5, func() { got = append(got, "b") })
	e.Schedule(5, func() { got = append(got, "c") })
	e.Run(5, 0)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run(10, 0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	var zeroEv Event
	zeroEv.Cancel() // must not panic
}

// TestEngineStaleHandleCancel pins the free-list safety contract: a
// handle to an event that already fired must not cancel whatever
// Schedule reused the pooled slot for.
func TestEngineStaleHandleCancel(t *testing.T) {
	e := NewEngine()
	first := 0
	stale := e.Schedule(1, func() { first++ })
	e.Run(5, 0) // fires and recycles the event
	if first != 1 {
		t.Fatalf("first event fired %d times, want 1", first)
	}
	second := 0
	e.Schedule(1, func() { second++ }) // reuses the pooled event
	stale.Cancel()                     // must be a no-op
	e.Run(10, 0)
	if second != 1 {
		t.Fatal("stale Cancel suppressed a reused event")
	}
}

// TestEngineEventReuse checks the free list actually recycles: a long
// schedule/fire cycle must not grow the pool beyond the peak number of
// simultaneously pending events.
func TestEngineEventReuse(t *testing.T) {
	e := NewEngine()
	allocated := 0
	countFree := func() int {
		n := 0
		for ev := e.free; ev != nil; ev = ev.next {
			n++
		}
		return n
	}
	for i := 0; i < 1000; i++ {
		e.Schedule(1, func() {})
		e.Run(e.Now()+2, 0)
		if total := e.Pending() + countFree(); total > allocated {
			allocated = total
		}
	}
	if allocated > 2 {
		t.Fatalf("pool grew to %d events over a schedule/fire cycle; free list is not recycling", allocated)
	}
}

// TestEngineHeapOrderRandomised cross-checks the concrete heap against
// a sort of the same (time, seq) pairs.
func TestEngineHeapOrderRandomised(t *testing.T) {
	e := NewEngine()
	rng := NewStream(123)
	const n = 500
	type stamp struct {
		time float64
		seq  int
	}
	var want []stamp
	var got []stamp
	for i := 0; i < n; i++ {
		d := math.Floor(rng.Float64()*50) / 10 // coarse grid forces ties
		seq := i
		want = append(want, stamp{d, seq})
		e.Schedule(d, func() { got = append(got, stamp{e.Now(), seq}) })
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].time != want[j].time {
			return want[i].time < want[j].time
		}
		return want[i].seq < want[j].seq
	})
	e.Run(100, 0)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEngineRunUntilStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(100, func() { fired++ })
	n := e.Run(10, 0)
	if n != 1 || fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
	e.Run(200, 0)
	if fired != 2 {
		t.Fatalf("fired %d events total, want 2", fired)
	}
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() { fired++ })
	}
	e.Run(100, 4)
	if fired != 4 {
		t.Fatalf("fired %d, want 4 (limit)", fired)
	}
	if e.Fired() != 4 {
		t.Fatalf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineScheduleFromAction(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run(10, 0)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(2, func() { fired++ })
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if fired != 1 || e.Now() != 2 {
		t.Fatalf("fired=%d now=%v", fired, e.Now())
	}
	if e.Step() {
		t.Fatal("Step returned true with an empty queue")
	}
}

func TestEngineInvalidDelayPanics(t *testing.T) {
	e := NewEngine()
	for _, d := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Schedule(%v) did not panic", d)
				}
			}()
			e.Schedule(d, func() {})
		}()
	}
}

// PeekTime reports the earliest pending fire time, and +Inf when the
// queue is empty or drained.
func TestPeekTime(t *testing.T) {
	e := NewEngine()
	if !math.IsInf(e.PeekTime(), 1) {
		t.Fatalf("empty engine PeekTime = %v, want +Inf", e.PeekTime())
	}
	e.Schedule(5, func() {})
	e.Schedule(2, func() {})
	if got := e.PeekTime(); got != 2 {
		t.Fatalf("PeekTime = %v, want 2", got)
	}
	e.Run(10, 0)
	if !math.IsInf(e.PeekTime(), 1) {
		t.Fatalf("drained engine PeekTime = %v, want +Inf", e.PeekTime())
	}
}

// ScheduleAt places events at absolute times and panics on times in
// the past.
func TestScheduleAt(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 1) })
	e.ScheduleAt(2, func() { order = append(order, 0) })
	e.Run(10, 0)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v, want [0 1]", order)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(e.Now()-1, func() {})
}

func TestStreamExpMean(t *testing.T) {
	s := NewStream(1)
	const mean = 7.0 // the paper's think time
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("sample mean %v, want ≈%v", got, mean)
	}
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("non-positive mean should draw 0")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(99), NewStream(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestStreamChoose(t *testing.T) {
	s := NewStream(5)
	counts := make([]int, 3)
	weights := []float64{0.5, 0.3, 0.2}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Choose(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("weight %d frequency %v, want ≈%v", i, got, w)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Choose with empty weights did not panic")
			}
		}()
		s.Choose(nil)
	}()
}

func TestStreamGeometric(t *testing.T) {
	s := NewStream(11)
	// Mean of the counting distribution is p/(1-p); the buy class's 10
	// sequential buys implies p = 10/11.
	const p = 10.0 / 11.0
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(s.Geometric(p))
	}
	got := sum / n
	if math.Abs(got-10)/10 > 0.03 {
		t.Fatalf("geometric mean %v, want ≈10", got)
	}
	if s.Geometric(0) != 0 {
		t.Fatal("p=0 should draw 0")
	}
}

func TestStreamDerive(t *testing.T) {
	parent := NewStream(42)
	a := parent.Derive(1)
	b := parent.Derive(2)
	same := true
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("derived streams are identical")
	}
}
