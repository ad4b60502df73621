// Package obs is the stack's observability layer: a metrics registry
// (counters, gauges, power-of-two histograms) and a bounded per-message
// trace ring, all designed to cost nothing when disabled and to allocate
// nothing on the hot path when enabled.
//
// The design follows the UCX_STATS model: every layer (fabric, transport,
// core, facade) registers its counters under a dotted name; a single
// Registry snapshot accounts for every message by protocol. Disabled mode
// is a nil *Observer — call sites guard with one pointer check, so the
// eager path's allocation count and latency are unchanged (pinned by
// TestEagerSmallMessageAllocsPinned and BenchmarkAblationObs).
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; Add and Load are safe for concurrent use and never
// allocate.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value sampled at snapshot time. Gauges are
// registered as functions so queue depths and pool sizes are read live
// rather than double-counted.
type Gauge func() int64

// Registry is a named collection of metrics. Registration (setup path)
// takes a lock and may allocate; reads of registered counters and
// histogram observations are lock-free.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent use; intended for setup, not per-message calls
// (hold the returned pointer instead).
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// GaugeFunc registers fn as the live value of name, replacing any
// previous registration.
func (r *Registry) GaugeFunc(name string, fn Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric, suitable
// for JSON encoding.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot samples every metric. Gauge functions run under the registry
// lock; they must not call back into the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.gauges {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON with sorted
// keys (expvar-style, but deterministic for tests and diffing).
func (r *Registry) WriteJSON(w io.Writer) error {
	return writeSortedJSON(w, r.Snapshot())
}

// writeSortedJSON encodes v with encoding/json (which sorts map keys) and
// indents it.
func writeSortedJSON(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// Observer bundles the two observability facilities a layer may be
// handed: the shared metrics registry and an optional trace ring. A nil
// *Observer means observability is disabled; call sites guard with a
// single pointer check and the hot path stays allocation-free.
type Observer struct {
	Registry *Registry
	Trace    *Ring
}

// New returns an Observer with a fresh registry. traceCap > 0 attaches a
// trace ring holding the last traceCap events (rounded up to a power of
// two); traceCap == 0 disables tracing but keeps metrics.
func New(traceCap int) *Observer {
	o := &Observer{Registry: NewRegistry()}
	if traceCap > 0 {
		o.Trace = NewRing(traceCap)
	}
	return o
}

// WriteJSON dumps the registry and, when tracing is enabled, the trace
// ring as one JSON document.
func (o *Observer) WriteJSON(w io.Writer) error {
	if o == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := struct {
		Metrics Snapshot `json:"metrics"`
		Trace   []Event  `json:"trace,omitempty"`
	}{Metrics: o.Registry.Snapshot()}
	if o.Trace != nil {
		doc.Trace = o.Trace.Events()
	}
	return writeSortedJSON(w, doc)
}

// String renders the JSON dump (diagnostics convenience).
func (o *Observer) String() string {
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		return fmt.Sprintf("obs: %v", err)
	}
	return buf.String()
}
