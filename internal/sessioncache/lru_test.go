package sessioncache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perfpred/internal/parallel"
)

// The §7.2 model treats application-server memory as an LRU cache over
// per-client sessions, where a miss reloads the session from the
// database. These tests check that a bounded parallel.Memo keyed by
// client behaves as that cache: eviction follows recency of access,
// and an evicted session is rebuilt on its next access.

// sessionStore is a bounded session cache whose builder counts the
// reloads (misses) per client.
type sessionStore struct {
	memo    parallel.Memo[int, string]
	reloads map[int]int
}

func newSessionStore(capacity int) *sessionStore {
	return &sessionStore{memo: parallel.Memo[int, string]{Capacity: capacity}, reloads: map[int]int{}}
}

func (s *sessionStore) access(t *testing.T, client int) (string, bool) {
	t.Helper()
	v, hit, err := s.memo.DoCtx(context.Background(), client, func() (string, error) {
		s.reloads[client]++
		return fmt.Sprintf("session-%d", client), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

func TestLRUEvictionOrder(t *testing.T) {
	s := newSessionStore(3)
	var evicted []int
	s.memo.OnEvict = func(client int, _ string) { evicted = append(evicted, client) }

	s.access(t, 1)
	s.access(t, 2)
	s.access(t, 3)
	// Client 1 is active again, so client 2 becomes least recently used.
	if v, hit := s.access(t, 1); !hit || v != "session-1" {
		t.Fatalf("access(1) = (%q, hit %v), want the resident session", v, hit)
	}
	s.access(t, 4) // evicts 2
	s.access(t, 5) // evicts 3
	if want := []int{2, 3}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("eviction order = %v, want %v (recency must follow accesses, not just loads)", evicted, want)
	}
	for _, c := range []int{1, 4, 5} {
		if _, hit := s.access(t, c); !hit {
			t.Fatalf("resident session %d missed", c)
		}
	}
	if n := s.memo.Len(); n != 3 {
		t.Fatalf("cache holds %d sessions, capacity 3", n)
	}
	if len(evicted) != 2 {
		t.Fatalf("hits on resident sessions evicted: %v", evicted)
	}
}

// TestLRURebuildAfterEvict checks that evicting a session makes its
// next access miss and reload it — once — while resident sessions
// never reload, and that under equally active clients the reload rate
// is the miss rate EqualAccessMissRate predicts.
func TestLRURebuildAfterEvict(t *testing.T) {
	s := newSessionStore(2)
	s.access(t, 1)
	s.access(t, 2)
	s.access(t, 1) // keep 1 warm: 2 is now LRU
	s.access(t, 3) // evicts 2
	if s.reloads[1] != 1 || s.reloads[2] != 1 || s.reloads[3] != 1 {
		t.Fatalf("reloads after first pass = %v, want one each", s.reloads)
	}
	if v, hit := s.access(t, 2); hit || v != "session-2" { // 2 was evicted
		t.Fatalf("access(2) = (%q, hit %v), want a reload", v, hit)
	}
	if s.reloads[2] != 2 {
		t.Fatalf("evicted session reloaded %d times, want 2 (miss after evict must reload)", s.reloads[2])
	}
	if v, _ := s.access(t, 1); v != "session-1" {
		t.Fatalf("access(1) = %q", v)
	}
	if s.reloads[1] != 2 {
		// 1 was evicted in turn when 2 was reloaded (capacity 2: {3, 2}).
		t.Fatalf("reloads[1] = %d, want 2", s.reloads[1])
	}

	const clients, capacity, sessionBytes = 100, 40, 4096
	const warm, accesses = 2000, 40000
	s = newSessionStore(capacity)
	rng := rand.New(rand.NewSource(7))
	misses := 0
	for i := 0; i < warm+accesses; i++ {
		if _, hit := s.access(t, rng.Intn(clients)); !hit && i >= warm {
			misses++
		}
	}
	got := float64(misses) / accesses
	want := EqualAccessMissRate(clients, sessionBytes, capacity*sessionBytes)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("measured miss rate %.4f, EqualAccessMissRate %.4f", got, want)
	}
}
