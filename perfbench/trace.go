package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Probe spans time a layer's
// public entry point outside the summed analysis path (a second call on
// the same inputs), because the path gives that layer no seam of its
// own.
type span struct {
	Name    string `json:"name"`
	Job     string `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a
	// root.
	Parent int  `json:"parent"`
	Probe  bool `json:"probe,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced rounds run. Safe for
// concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, job string, parent int, probe bool) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, StartNS: now, EndNS: now, Parent: parent, Probe: probe})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return float64(now-t.spans[id].StartNS) / 1e6
}

// add records a span whose bounds were measured elsewhere (by the
// client's clock or the service's job timestamps) and returns its index.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers accumulates one round's per-layer metrics by name.
type layers map[string]float64
