package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary the benchmark owns.
// Spans of one request share Req; Parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the traced code path.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name under parent (0 for a root) in request
// req (0 when the span belongs to no request).
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// id is the span's identifier, for children to name as parent.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and returns its duration.
func (o openSpan) end() time.Duration {
	if o.t == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.add(o.s)
	return time.Duration(o.s.End - o.s.Start)
}

// record adds a span the caller timed itself.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far with their self times.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	computeSelf(spans)
	return spans
}

// computeSelf sets each span's Self: its duration minus the length of
// the union of its children's intervals, so overlapping children are
// not counted twice. Children are not clipped to their parent: a child
// running past its parent makes the parent's self time too small, or
// negative, and checkSpans reports it.
func computeSelf(spans []span) {
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			if spans[k].End > spans[k].Start {
				ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curHi {
				curHi = max(curHi, iv[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		}
		if open {
			covered += curHi - curLo
		}
		p.Self = p.End - p.Start - covered
	}
}

// checkSpans reports a malformed span tree: a span ending before it
// starts, a parent that was never recorded, a child that starts before
// or ends after its parent, or a negative self time. It counts every
// such span and names the first of each kind.
func checkSpans(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var kinds []string
	count := map[string]int{}
	first := map[string]span{}
	note := func(kind string, s span) {
		if count[kind] == 0 {
			kinds = append(kinds, kind)
			first[kind] = s
		}
		count[kind]++
	}
	for _, s := range spans {
		if s.End < s.Start {
			note("span ends before it starts", s)
		}
		if s.Self < 0 {
			note("negative self time", s)
		}
		if s.Parent == 0 {
			continue
		}
		if p, ok := byID[s.Parent]; !ok {
			note("parent not recorded", s)
		} else if s.Start < p.Start || s.End > p.End {
			note("child outside its parent's interval", s)
		}
	}
	if len(kinds) == 0 {
		return nil
	}
	var b strings.Builder
	for i, kind := range kinds {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d x %s (first: %+v)", count[kind], kind, first[kind])
	}
	return fmt.Errorf("malformed span tree: %s", b.String())
}

// layerTable summarises spans by name: count, median duration, median
// and total self time, and each name's share of all self time.
func layerTable(spans []span) string {
	type agg struct {
		durs, selfs []float64
		selfSum     float64
	}
	by := map[string]*agg{}
	var total float64
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, float64(s.End-s.Start))
		a.selfs = append(a.selfs, float64(s.Self))
		a.selfSum += float64(s.Self)
		total += float64(s.Self)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-26s %9s %13s %13s %12s %7s\n", "span", "count", "p50 dur(us)", "p50 self(us)", "self sum(ms)", "self%")
	for _, name := range sortedKeys(by) {
		a := by[name]
		share := 0.0
		if total > 0 {
			share = 100 * a.selfSum / total
		}
		fmt.Fprintf(&b, "  %-26s %9d %13.3f %13.3f %12.3f %7.2f\n", name, len(a.durs),
			quantile(a.durs, 0.5)/1e3, quantile(a.selfs, 0.5)/1e3, a.selfSum/1e6, share)
	}
	return b.String()
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace computes self times, stores the per-layer table and
// fails the run when the span tree is malformed.
func (r *runner) finishTrace() []span {
	spans := r.tr.snapshot()
	if err := checkSpans(spans); err != nil {
		r.fail("trace: %v", err)
	}
	r.layers = layerTable(spans)
	return spans
}
