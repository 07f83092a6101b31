package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call: a request sent by the client, or a call the
// benchmark made into a layer's public function. Spans of one request share
// the request's root span as their ancestor.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for roots
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out at exit. A nil
// tracer records nothing, which is how untraced runs stay span-free.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a finished span under a fresh id.
func (t *tracer) record(parent int64, layer, name string, start, end int64) {
	t.add(span{ID: t.ids.Add(1), Parent: parent, Layer: layer, Name: name, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// scope tracks the innermost open span of one goroutine's call chain, so the
// calls it times become children of the call they happen inside.
type scope struct {
	tr  *tracer
	cur int64
}

// call runs fn as a span under the scope's current span. The span's id is
// reserved before fn runs so spans recorded inside fn can name it as parent.
func (s *scope) call(layer, name string, fn func()) {
	if s == nil || s.tr == nil {
		fn()
		return
	}
	id := s.tr.ids.Add(1)
	parent := s.cur
	s.cur = id
	start := s.tr.now()
	fn()
	end := s.tr.now()
	s.cur = parent
	s.tr.add(span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
}

// descendants returns the spans whose root span is accepted by keep.
func descendants(spans []span, keep func(root span) bool) []span {
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && keep(s) {
			roots[s.ID] = true
		}
	}
	var out []span
	for _, s := range spans {
		id := s.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		if roots[id] {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time of spans: each span's
// duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]*span{}
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanStats sums the spans named name and counts them.
func spanStats(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// meanSpan is the mean duration of the spans named name, or 0 when none.
func meanSpan(spans []span, name string) time.Duration {
	total, n := spanStats(spans, name)
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
