package main

// Benchmark-side tracing. Spans are recorded only here, around calls into
// the program's public functions; nothing inside the program is
// instrumented. Spans are kept in memory and written when the run ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Trace is the ID of the root span of the input
// that caused it, so every span of one input shares it.
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Design string `json:"design,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced run measures with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 opens a root, a new trace) and returns
// its ID.
func (t *tracer) begin(parent int, name, design string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Trace: trace, Parent: parent, Name: name, Design: design, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// label sets the design of an open span.
func (t *tracer) label(id int, design string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Design = design
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name, design string, fn func() error) error {
	id := t.begin(parent, name, design)
	err := fn()
	t.end(id)
	return err
}

// byName returns the durations of the named spans, grouped by design.
func (t *tracer) byName(name string) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Design] = append(out[s.Design], s.dur())
		}
	}
	return out
}

// perDesignMean is the mean over designs of each design's median duration
// of the named span, in ms: the cost of the layer for an average input of a
// balanced round. 0 when no such span was recorded.
func (t *tracer) perDesignMean(name string) float64 {
	return meanOfMedians(t.byName(name))
}

func meanOfMedians(groups map[string][]time.Duration) float64 {
	if len(groups) == 0 {
		return 0
	}
	var sum float64
	for _, ds := range groups {
		sum += median(durMS(ds))
	}
	return sum / float64(len(groups))
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

type selfTime struct {
	n          int
	total, own time.Duration
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) selfTimes() map[string]selfTime {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		e := out[s.Name]
		e.n++
		e.total += s.dur()
		e.own += s.dur() - time.Duration(covered)
		out[s.Name] = e
	}
	return out
}

// writeSelfTimes prints the per-layer self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "count", "mean ms", "self ms")
	for _, n := range names {
		e := st[n]
		fmt.Fprintf(w, "%-34s %7d %12.4f %12.4f\n", n, e.n,
			float64(e.total)/float64(e.n)/1e6, float64(e.own)/float64(e.n)/1e6)
	}
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
