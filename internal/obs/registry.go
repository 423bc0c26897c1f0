package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// The registry is the unified metrics surface: every subsystem's counters
// — the memory layer's per-label read/write/blocked stats, the transport's
// message and byte counters, lock and barrier client stats, and the
// tracer's own ring state — appear behind one snapshot shape served as an
// expvar-style JSON document by `mixednode -obs`. obs is a leaf package,
// so the structs below are plain data; the conversions from dsm.Stats,
// network.Stats, and friends live with their owners (internal/core wires
// them up).

// MemMetrics is the memory layer's snapshot: operation counts by label
// and the blocked aggregate split by cause. BlockedByCause sums to
// BlockedNS (the per-cause split is pinned by a regression test in
// internal/dsm).
type MemMetrics struct {
	Writes      uint64 `json:"writes"`
	PRAMReads   uint64 `json:"pramReads"`
	CausalReads uint64 `json:"causalReads"`
	SlowReads   uint64 `json:"slowReads"`
	SCReads     uint64 `json:"scReads"`
	SCWrites    uint64 `json:"scWrites"`
	Awaits      uint64 `json:"awaits"`
	// BlockedNS is total time blocked in waits, in nanoseconds;
	// BlockedByCause splits it by wait cause: "await", "causal-wait",
	// "sc", "invalidation".
	BlockedNS        int64            `json:"blockedNs"`
	BlockedByCause   map[string]int64 `json:"blockedByCauseNs"`
	MalformedUpdates uint64           `json:"malformedUpdates"`
	// PendingGroups is the causal-delivery backlog right now (received
	// groups parked behind an unmet dependency); PendingGroupsMax is its
	// high-water mark.
	PendingGroups    uint64 `json:"pendingGroups"`
	PendingGroupsMax uint64 `json:"pendingGroupsMax"`
}

// NetMetrics is the transport snapshot: totals, per-destination sends,
// and per-kind message/byte breakdowns. The maps are deep copies private
// to the snapshot.
type NetMetrics struct {
	MessagesSent uint64            `json:"messagesSent"`
	BytesSent    uint64            `json:"bytesSent"`
	PerNodeSent  []uint64          `json:"perNodeSent,omitempty"`
	PerKind      map[string]uint64 `json:"perKind,omitempty"`
	PerKindBytes map[string]uint64 `json:"perKindBytes,omitempty"`
	// TCP link diagnostics; zero on the simulated fabric.
	Dials        uint64 `json:"dials,omitempty"`
	DialFailures uint64 `json:"dialFailures,omitempty"`
	Replayed     uint64 `json:"replayed,omitempty"`
	Duplicates   uint64 `json:"duplicates,omitempty"`
	DecodeErrors uint64 `json:"decodeErrors,omitempty"`
	Gaps         uint64 `json:"gaps,omitempty"`
	// AcksSent counts the cumulative acks the node wrote as a receiver;
	// LogBytes is a gauge, the unacknowledged frame bytes its replay logs
	// hold right now.
	AcksSent uint64 `json:"acksSent,omitempty"`
	LogBytes uint64 `json:"logBytes,omitempty"`
}

// SyncMetrics is the synchronization-client snapshot.
type SyncMetrics struct {
	LockAcquires    uint64 `json:"lockAcquires"`
	LockAcquireNS   int64  `json:"lockAcquireNs"`
	LockReleaseNS   int64  `json:"lockReleaseNs"`
	Barriers        uint64 `json:"barriers"`
	BarrierWaitNS   int64  `json:"barrierWaitNs"`
	ManagerMessages uint64 `json:"managerMessages,omitempty"`
}

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

// LocationMetrics is one location's access profile (from the memory
// layer's TrackAccess log), the per-location breakdown of the registry.
type LocationMetrics struct {
	Loc    string   `json:"loc"`
	Labels []string `json:"labels"`
}

// Registry is a named collection of snapshot sections served as one JSON
// document. Sections are functions, so every request (or Snapshot call)
// observes live counters; registration order is preserved in the output.
type Registry struct {
	mu       sync.Mutex
	order    []string
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
	if _, ok := r.sections[name]; !ok {
		r.order = append(r.order, name)
	}
	r.sections[name] = fn
}

// Snapshot evaluates every section.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fns := make([]func() any, len(names))
	for i, n := range names {
		fns[i] = r.sections[n]
	}
	r.mu.Unlock()
	out := make(map[string]any, len(names))
	for i, n := range names {
		out[n] = fns[i]()
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

// SectionNames lists the registered sections in registration order.
func (r *Registry) SectionNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}
