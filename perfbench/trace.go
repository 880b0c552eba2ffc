package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// (a Table 1 cell, a checker task, a service request) share Op; Parent
// is the ID of the span that made the call, 0 for the operation itself.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code path
// is the same with tracing off except for a nil check.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// spanHandle is an open span; end closes it.
type spanHandle struct {
	t      *tracer
	id, op int64
	parent int64
	name   string
	start  time.Time
}

// begin opens an operation's root span.
func (t *tracer) begin(name string) *spanHandle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &spanHandle{t: t, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span caused by h. A nil h yields a nil child.
func (h *spanHandle) child(name string) *spanHandle {
	if h == nil {
		return nil
	}
	t := h.t
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &spanHandle{t: t, id: id, op: h.op, parent: h.id, name: name, start: time.Now()}
}

func (h *spanHandle) end() {
	if h == nil {
		return
	}
	h.record(h.start, time.Now())
}

// record closes h with explicit bounds; the Table 1 parent uses it to
// file the spans its cell processes measured.
func (h *spanHandle) record(start, end time.Time) {
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, span{
		ID: h.id, Parent: h.parent, Op: h.op, Name: h.name,
		Start: start.UnixNano(), End: end.UnixNano(),
	})
	h.t.mu.Unlock()
}

// layerOf maps a span name to the module it measures: "cminic.Parse"
// belongs to cminic, "http.analyze" to service, an operation's root
// span to the benchmark itself.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "http."):
		return "service"
	case strings.HasPrefix(name, "op."):
		return "bench"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time summed over all spans: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		covered := coveredNS(s, kids[s.ID])
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
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
	return total + curHi - curLo
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
