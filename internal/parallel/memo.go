package parallel

import (
	"context"
	"errors"
	"sync"
)

// Memo is a concurrency-safe, singleflight-style memoisation table with
// an optional least-recently-used bound. The first caller of Do for a
// key runs fn; concurrent callers of the same key block until that
// flight finishes and share its result; later callers get the memoised
// value without running fn again. Different keys never block each
// other.
//
// A successful result is memoised. A failed flight is NOT: its waiters
// receive the error, and the next Do for that key retries — the same
// semantics the serial suite had, where an errored calibration left the
// memo field unset.
//
// The zero value is ready to use and unbounded, which suits sweeps that
// build every key once and read it many times. A long-lived process
// sets Capacity before first use: a hit marks the value most recently
// used, and when a finished build would take the memo past Capacity
// values, the least recently used finished values are evicted (and
// reported to OnEvict), so the next Do for an evicted key rebuilds it.
// A flight still running is never evicted, so eviction can never let a
// second build of the same key start while the first is in progress.
type Memo[K comparable, V any] struct {
	// Capacity bounds how many finished values the memo holds; 0 means
	// unbounded. Set it before the first Do.
	Capacity int
	// OnEvict, if non-nil, is called with every value Capacity evicts,
	// after the memo's lock is released. Set it before the first Do.
	OnEvict func(K, V)

	mu sync.Mutex
	m  map[K]*flight[K, V]
	// Finished flights form a recency list: head is the most recently
	// used, tail the next to evict. Running flights are not on it.
	head, tail *flight[K, V]
	finished   int
}

type flight[K comparable, V any] struct {
	key        K
	done       chan struct{}
	val        V
	err        error
	ok         bool // finished successfully and on the recency list
	prev, next *flight[K, V]
}

// Do returns the memoised value for key, computing it with fn on the
// first call. fn runs at most once per key at a time, and at most once
// per residency if it succeeds.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	v, _, err := m.DoCtx(context.Background(), key, fn)
	return v, err
}

// DoCtx is Do with a cancellable wait, reporting whether the value was
// already memoised (hit) rather than waited for.
//
// A caller that joins an in-progress flight stops waiting when ctx is
// done and returns ctx.Err() with the zero value. The flight itself is
// *not* cancelled — the leader runs fn to completion regardless of any
// waiter's context (the computation is shared property, so one
// impatient caller must not poison the slot for the others), and its
// result is memoised exactly as with Do. A caller that becomes the
// leader likewise runs fn to completion; fn may consult its own context
// internally if the computation should observe deadlines. When a
// flight fails with a context error, that was the leader's deadline,
// not the computation's verdict: a waiter whose own ctx is still live
// retries, leading or joining the next flight.
func (m *Memo[K, V]) DoCtx(ctx context.Context, key K, fn func() (V, error)) (v V, hit bool, err error) {
	for {
		m.mu.Lock()
		f, ok := m.m[key]
		if ok && f.ok {
			m.moveToFront(f)
			m.mu.Unlock()
			return f.val, true, nil
		}
		if !ok {
			v, err := m.lead(key, fn)
			return v, false, err
		}
		m.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		}
		if f.err == nil || ctx.Err() != nil ||
			!(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			return f.val, false, f.err
		}
	}
}

// lead runs a new flight for key; m.mu is held on entry and released
// before fn runs.
func (m *Memo[K, V]) lead(key K, fn func() (V, error)) (V, error) {
	if m.m == nil {
		m.m = make(map[K]*flight[K, V])
	}
	f := &flight[K, V]{key: key, done: make(chan struct{})}
	m.m[key] = f
	m.mu.Unlock()

	val, err := fn()
	var evicted *flight[K, V]
	m.mu.Lock()
	f.val, f.err = val, err
	if err != nil {
		delete(m.m, key)
	} else {
		f.ok = true
		m.pushFront(f)
		evicted = m.evict()
	}
	m.mu.Unlock()
	close(f.done)
	for e := evicted; e != nil && m.OnEvict != nil; e = e.next {
		m.OnEvict(e.key, e.val)
	}
	return val, err
}

// evict drops least recently used finished values past Capacity and
// returns them, least recent first, chained through next.
func (m *Memo[K, V]) evict() (evicted *flight[K, V]) {
	var last *flight[K, V]
	for m.Capacity > 0 && m.finished > m.Capacity {
		f := m.tail
		m.unlink(f)
		delete(m.m, f.key)
		if last == nil {
			evicted = f
		} else {
			last.next = f
		}
		last = f
	}
	return evicted
}

func (m *Memo[K, V]) pushFront(f *flight[K, V]) {
	f.prev, f.next = nil, m.head
	if m.head != nil {
		m.head.prev = f
	} else {
		m.tail = f
	}
	m.head = f
	m.finished++
}

func (m *Memo[K, V]) unlink(f *flight[K, V]) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		m.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		m.tail = f.prev
	}
	f.prev, f.next = nil, nil
	m.finished--
}

func (m *Memo[K, V]) moveToFront(f *flight[K, V]) {
	if m.head != f {
		m.unlink(f)
		m.pushFront(f)
	}
}

// Len returns the number of memoised (finished) values.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.finished
}

// Once memoises a single computed value: Memo with one key. It is the
// done-flag replacement for zero-value sentinels like
// `if s.gradient != 0 { return s.gradient }`, which misread a
// legitimately-zero cached value as "not yet computed" and are not
// safe for concurrent use. The zero value is ready to use.
type Once[V any] struct {
	memo Memo[struct{}, V]
}

// Do returns the memoised value, computing it with fn on the first
// call. Errors are not memoised; concurrent callers share one flight.
func (o *Once[V]) Do(fn func() (V, error)) (V, error) {
	return o.memo.Do(struct{}{}, fn)
}
