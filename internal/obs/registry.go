package obs

import (
	"encoding/json"
	"maps"
	"net/http"
	"sort"
	"sync"
)

// The registry is the unified metrics surface: every subsystem's counters
// — the memory layer's per-label read/write/blocked stats, the transport's
// message and byte counters, lock and barrier client stats, and the
// tracer's own ring state — appear behind one snapshot served as an
// expvar-style JSON document by `mixednode -obs`. obs is a leaf package, so
// it declares no counters but the tracer's: each section is a snapshot
// struct its subsystem exports, JSON tags and all (internal/core wires them
// up).

// TraceMetrics is the tracer's own state.
type TraceMetrics struct {
	Enabled  bool   `json:"enabled"`
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

// TraceMetricsOf snapshots a tracer's ring counters (nil tracer reports
// disabled).
func TraceMetricsOf(t *Tracer) TraceMetrics {
	if t == nil {
		return TraceMetrics{}
	}
	return TraceMetrics{Enabled: true, Capacity: t.Capacity(),
		Recorded: t.Recorded(), Dropped: t.Dropped()}
}

// Registry is a named collection of snapshot sections served as one JSON
// document. Sections are functions, so every request (or Snapshot call)
// observes live counters.
type Registry struct {
	mu       sync.Mutex
	sections map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sections: map[string]func() any{}}
}

// Register adds (or replaces) a named section.
func (r *Registry) Register(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sections[name] = fn
}

// Snapshot evaluates every section.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fns := maps.Clone(r.sections)
	r.mu.Unlock()
	out := make(map[string]any, len(fns))
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}

// ServeHTTP serves the snapshot as indented JSON, expvar-style: one
// object, one key per registered section, keys in sorted order (JSON maps
// marshal sorted).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

// SectionNames lists the registered sections in sorted order, the order
// ServeHTTP emits them in.
func (r *Registry) SectionNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.sections))
	for n := range r.sections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
