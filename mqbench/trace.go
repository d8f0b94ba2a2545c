package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// benchmark operation share Req; Parent indexes the span that caused
// it (-1 for an operation's root span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory while on. Every method is safe on a
// disabled tracer and then costs one atomic load, so the end-to-end
// runs, which never switch it on, pay nothing measurable.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// req and cur identify the operation in flight: one client in a
	// closed loop means every span opened while it runs belongs to it.
	req atomic.Int64
	cur atomic.Int64
	// counters accumulate counts read at layer boundaries while on.
	counters map[string]float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), counters: map[string]float64{}}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) open(name string, parent int) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req.Load()})
	return len(t.spans) - 1
}

// beginOp opens the root span of one benchmark operation.
func (t *tracer) beginOp(kind string) int {
	if !t.on.Load() {
		return -1
	}
	t.req.Add(1)
	i := t.open("op."+kind, -1)
	t.cur.Store(int64(i))
	return i
}

// begin opens a child span of the operation in flight.
func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	return t.open(name, int(t.cur.Load()))
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.mu.Unlock()
}

// timed wraps f in a span.
func (t *tracer) timed(name string, f func() error) error {
	i := t.begin(name)
	err := f()
	t.end(i)
	return err
}

// add accumulates v into the named counter while tracing is on.
func (t *tracer) add(name string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// stat sums the durations (in ns) and counts the spans named name.
func (t *tracer) stat(name string) (total float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			total += float64(s.End - s.Start)
			n++
		}
	}
	return total, n
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// handler wraps an http.Handler in a span per request, named by
// nameOf, and counts the response bytes it writes into bytes (if set).
func (t *tracer) handler(nameOf func(*http.Request) string, h http.Handler, bytes *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		i := t.begin(nameOf(r))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.end(i)
		if bytes != nil {
			bytes.Add(cw.n)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// layerMetrics is the per-layer result of a traced run, by name.
type layerMetrics map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
