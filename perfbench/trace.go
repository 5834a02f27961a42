package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is 0 for a request's
// root span; Req groups the spans of one replayed request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same replay code measures the untraced
// baseline for the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	next  atomic.Int64
	// cur and req name the span and request that calls made on other
	// goroutines (per-shard appends and scans, store observers) hang
	// under. The replay is sequential, so one pair suffices.
	cur, req atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// active is an open span.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent.
func (t *tracer) begin(name string, parent, req int64) active {
	if !t.on {
		return active{}
	}
	now := time.Now()
	return active{t: t, start: now, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name}}
}

// child opens a span under the current span.
func (t *tracer) child(name string) active { return t.begin(name, t.cur.Load(), t.req.Load()) }

// enter makes a the current span and returns a func restoring the
// previous one.
func (t *tracer) enter(a active) func() {
	if a.t == nil {
		return func() {}
	}
	prevCur, prevReq := t.cur.Load(), t.req.Load()
	t.cur.Store(a.s.ID)
	t.req.Store(a.s.Req)
	return func() { t.cur.Store(prevCur); t.req.Store(prevReq) }
}

func (a active) id() int64 { return a.s.ID }

// end closes the span, with an optional tag.
func (a active) end(tag string) {
	if a.t == nil {
		return
	}
	a.s.Start = int64(a.start.Sub(a.t.epoch))
	a.s.End = int64(time.Since(a.t.epoch))
	a.s.Tag = tag
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// done returns the recorded spans.
func (t *tracer) done() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the union of its
// children's intervals (children of a scatter overlap one another).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name      string
	calls     int
	total     time.Duration
	self      time.Duration
	selfShare float64
}

// layerTable sums self time by span name.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var all time.Duration
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += self[s.ID]
		all += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if all > 0 {
			r.selfShare = float64(r.self) / float64(all)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printLayerTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer self time (%s):\n", title)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %7s\n", "layer", "calls", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f %6.1f%%\n", r.name, r.calls, ms(r.total), ms(r.self), 100*r.selfShare)
	}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile of xs (0 when empty); xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
