package parallel

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", c)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	for k := 0; k < 5; k++ {
		v, err := m.Do(k, func() (int, error) { return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Do(%d) = (%d, %v)", k, v, err)
		}
	}
	// Second pass must hit the memo, not recompute.
	for k := 0; k < 5; k++ {
		v, err := m.Do(k, func() (int, error) {
			t.Fatalf("recomputed key %d", k)
			return 0, nil
		})
		if err != nil || v != k*10 {
			t.Fatalf("memoised Do(%d) = (%d, %v)", k, v, err)
		}
	}
}

func TestMemoErrorsRetry(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	if _, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, err := m.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Do = (%d, %v), want (7, nil): failures must not be memoised", v, err)
	}
}

// TestMemoStampede is the serving-cache contract: a thundering herd of
// cold requests for one key runs the underlying build exactly once,
// and every caller — leader and waiters alike — receives that build's
// value. The build is deliberately slow so all N goroutines really do
// pile onto one in-progress flight rather than racing past each other.
func TestMemoStampede(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const herd = 64

	var wg sync.WaitGroup
	errs := make([]error, herd)
	vals := make([]int, herd)
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], errs[g] = m.Do("model", func() (int, error) {
				if builds.Add(1) == 1 {
					close(started)
				}
				<-release // hold the flight open while the herd gathers
				return 77, nil
			})
		}(g)
	}
	<-started
	// Give the rest of the herd time to join the flight, then let the
	// single build finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if b := builds.Load(); b != 1 {
		t.Fatalf("stampede ran %d builds for one key, want exactly 1", b)
	}
	for g := 0; g < herd; g++ {
		if errs[g] != nil || vals[g] != 77 {
			t.Fatalf("caller %d got (%d, %v), want (77, nil)", g, vals[g], errs[g])
		}
	}
}

// TestMemoStampedeErrorNotCached checks the failure half of the
// stampede contract: when the shared flight fails, every waiter sees
// the error, nothing is cached, and the next request retries the
// build.
func TestMemoStampedeErrorNotCached(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("build failed")
	var builds atomic.Int64
	release := make(chan struct{})
	const herd = 16

	var wg sync.WaitGroup
	var sawErr atomic.Int64
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.Do("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 0, boom
			})
			if errors.Is(err, boom) {
				sawErr.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()

	if b := builds.Load(); b < 1 {
		t.Fatalf("no build ran")
	}
	if sawErr.Load() == 0 {
		t.Fatalf("no caller saw the flight's error")
	}
	v, err := m.Do("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("post-failure Do = (%d, %v), want (5, nil): errors must not be cached", v, err)
	}
}

// TestMemoCancelledWaitersDontPoison is the deadline contract: waiters
// whose context expires mid-flight get ctx.Err() and go away, but the
// flight itself completes and its value lands in the slot — an
// impatient caller must not poison the cache for everyone else.
func TestMemoCancelledWaitersDontPoison(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	// Leader: slow build.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := m.Do("k", func() (int, error) {
			builds.Add(1)
			close(started)
			<-release
			return 31, nil
		})
		if err != nil || v != 31 {
			t.Errorf("leader got (%d, %v), want (31, nil)", v, err)
		}
	}()
	<-started

	// Waiters with already-expired deadlines: they must return
	// context errors promptly instead of blocking on the flight.
	for g := 0; g < 8; g++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := m.DoCtx(ctx, "k", func() (int, error) {
			t.Error("cancelled waiter became a second leader")
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
		}
	}

	close(release)
	<-leaderDone

	// The slot must hold the leader's value: cancelled waiters did not
	// poison or clear it.
	v, hit, err := m.DoCtx(context.Background(), "k", func() (int, error) {
		t.Fatal("slot was poisoned: build re-ran after cancelled waiters")
		return 0, nil
	})
	if err != nil || v != 31 || !hit {
		t.Fatalf("post-cancel DoCtx = (%d, hit %v, %v), want (31, hit, nil)", v, hit, err)
	}
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
}

func TestMemoUnboundedByDefault(t *testing.T) {
	var m Memo[int, int]
	m.OnEvict = func(k, _ int) { t.Fatalf("unbounded memo evicted key %d", k) }
	for i := 0; i < 1000; i++ {
		if _, err := m.Do(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Len(); n != 1000 {
		t.Fatalf("unbounded memo holds %d values, want 1000", n)
	}
}

// TestMemoEvictionOrder checks the LRU bound: recency follows hits, not
// just inserts, evictions are reported in least-recently-used order,
// and an evicted key rebuilds on its next Do while resident keys never
// do.
func TestMemoEvictionOrder(t *testing.T) {
	m := Memo[string, int]{Capacity: 3}
	var evicted []string
	m.OnEvict = func(k string, _ int) { evicted = append(evicted, k) }
	builds := map[string]int{}
	get := func(k string) (int, bool) {
		v, hit, err := m.DoCtx(context.Background(), k, func() (int, error) {
			builds[k]++
			return len(k) * builds[k], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}

	get("a")
	get("bb")
	get("ccc")
	// Touch "a" so "bb" becomes least recently used.
	if v, hit := get("a"); !hit || v != 1 {
		t.Fatalf("get(a) = (%d, hit %v), want (1, hit)", v, hit)
	}
	get("dddd")  // evicts bb
	get("eeeee") // evicts ccc
	if want := []string{"bb", "ccc"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order = %v, want %v (recency must follow hits, not just inserts)", evicted, want)
	}
	for _, k := range []string{"a", "dddd", "eeeee"} {
		if _, hit := get(k); !hit {
			t.Fatalf("resident key %q missed", k)
		}
	}
	if n := m.Len(); n != 3 {
		t.Fatalf("memo holds %d values, capacity 3", n)
	}
	if v, hit := get("bb"); hit || v != 4 {
		t.Fatalf("evicted key: get(bb) = (%d, hit %v), want a rebuild returning 4", v, hit)
	}
	if builds["bb"] != 2 || builds["a"] != 1 {
		t.Fatalf("builds = %v, want bb rebuilt once and a never", builds)
	}
	if want := []string{"bb", "ccc", "a"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order = %v, want %v", evicted, want)
	}
}

func TestMemoBoundedConcurrent(t *testing.T) {
	m := Memo[int, int]{Capacity: 64}
	var evictions atomic.Int64
	m.OnEvict = func(int, int) { evictions.Add(1) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*131 + i) % 200
				if v, err := m.Do(k, func() (int, error) { return k * 3, nil }); err != nil || v != k*3 {
					t.Errorf("Do(%d) = (%d, %v), want %d", k, v, err, k*3)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 64 {
		t.Fatalf("memo holds %d values, capacity 64", n)
	}
	if evictions.Load() == 0 {
		t.Fatal("200 keys through a 64-value memo evicted nothing")
	}
}

// TestMemoRebuildAfterEvictionBuildsOnce evicts a key, then rebuilds it
// under a herd of concurrent callers while other keys finish and push
// the memo past its bound: the running rebuild must not be evicted, so
// the herd shares exactly one rebuild.
func TestMemoRebuildAfterEvictionBuildsOnce(t *testing.T) {
	m := Memo[int, int]{Capacity: 1}
	var evicted []int
	m.OnEvict = func(k, _ int) { evicted = append(evicted, k) }
	var builds atomic.Int64
	build := func() (int, error) { builds.Add(1); return 10, nil }

	m.Do(1, build)
	m.Do(2, func() (int, error) { return 20, nil }) // evicts 1
	if !reflect.DeepEqual(evicted, []int{1}) {
		t.Fatalf("evicted %v, want [1]", evicted)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		m.Do(1, func() (int, error) {
			builds.Add(1)
			close(started)
			<-release
			return 11, nil
		})
	}()
	<-started
	const herd = 16
	var wg sync.WaitGroup
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.Do(1, build); err != nil || v != 11 {
				t.Errorf("herd member got (%d, %v), want the rebuild's (11, nil)", v, err)
			}
		}()
	}
	// Finished keys push the memo past its bound while 1 rebuilds.
	m.Do(3, func() (int, error) { return 30, nil }) // evicts 2
	m.Do(4, func() (int, error) { return 40, nil }) // evicts 3
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-leaderDone
	wg.Wait()

	if b := builds.Load(); b != 2 {
		t.Fatalf("key 1 built %d times, want 2 (first build + one shared rebuild)", b)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v (a running flight must never be evicted)", evicted, want)
	}
	if n := m.Len(); n != 1 {
		t.Fatalf("memo holds %d values, capacity 1", n)
	}
}

// TestMemoWaiterOutlivesLeaderDeadline: a flight that fails because its
// leader's deadline expired must not fail a waiter whose own context is
// still live — the waiter retries and gets a real value.
func TestMemoWaiterOutlivesLeaderDeadline(t *testing.T) {
	var m Memo[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, context.DeadlineExceeded
		})
		leaderErr <- err
	}()
	<-started

	type result struct {
		v   int
		err error
	}
	patient := make(chan result, 1)
	go func() {
		v, _, err := m.DoCtx(context.Background(), "k", func() (int, error) { return 8, nil })
		patient <- result{v, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	close(release)

	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want its own DeadlineExceeded", err)
	}
	if r := <-patient; r.err != nil || r.v != 8 {
		t.Fatalf("patient waiter got (%d, %v), want a retried (8, nil)", r.v, r.err)
	}
}

// TestMemoHitAllocatesNothing pins the warm path of a bounded memo: a
// hit is one lock, one map lookup and one recency bump.
func TestMemoHitAllocatesNothing(t *testing.T) {
	m := Memo[int, *int]{Capacity: 4}
	val := 7
	fn := func() (*int, error) { return &val, nil }
	for k := 0; k < 4; k++ {
		m.Do(k, fn)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < 4; k++ {
			if _, hit, _ := m.DoCtx(ctx, k, fn); !hit {
				t.Fatalf("key %d missed", k)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("bounded memo hit allocates %v times, want 0", allocs)
	}
}

// TestOnceCachesZeroValue is the regression test for the suite's old
// `if s.gradient != 0` memoisation, which re-ran the calibration
// whenever the cached value was legitimately zero.
func TestOnceCachesZeroValue(t *testing.T) {
	var o Once[float64]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := o.Do(func() (float64, error) {
			calls++
			return 0, nil
		})
		if err != nil || v != 0 {
			t.Fatalf("Do = (%v, %v)", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("zero value recomputed: fn ran %d times, want 1", calls)
	}
}

func TestOnceConcurrent(t *testing.T) {
	var o Once[int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := o.Do(func() (int, error) {
				calls.Add(1)
				return 9, nil
			}); err != nil || v != 9 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
}
