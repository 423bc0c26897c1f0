// Package network simulates the message-passing substrate assumed by the
// paper's implementation sketch (Section 6): a set of processes connected by
// reliable FIFO channels.
//
// The fabric provides:
//
//   - one unbounded FIFO channel per ordered pair of nodes, so delivery
//     between any two processes preserves send order while deliveries from
//     different senders interleave arbitrarily;
//   - a configurable latency model (fixed per-message cost, per-byte cost,
//     and seeded jitter) so benchmarks can charge realistic relative costs
//     to protocols that exchange different numbers and sizes of messages;
//   - per-channel Hold/Release controls that pause delivery without
//     violating FIFO, used by tests to build adversarial schedules (for
//     example, the schedule that shows PRAM reads are insufficient for the
//     handshake equation solver of Figure 3);
//   - message and byte accounting per node and per message kind.
//
// The fabric is in-process: "sending" enqueues onto the pair's channel and a
// delivery goroutine moves messages into the destination node's inbox after
// the modeled latency. This preserves exactly the ordering guarantees of the
// paper's model while keeping experiments deterministic and laptop-scale.
//
// A message crosses two structures (DESIGN.md §7) under one lock, the
// destination inbox's. The pair channel (pair.go) is where a send is ordered
// and accounted, and its state is guarded by that lock: one hold per message,
// which covers the idle-channel bypass into the inbox when the latency model
// is zero. The inbox (inbox.go) is a burst queue of fixed chunks: the node's
// one receiver takes everything delivered since it last looked in a single
// lock hold and hands it out with no lock. Inbox is exported because the tcp
// transport delivers into the same structure.
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Message is a unit of communication between two nodes.
type Message struct {
	// From and To identify the sending and receiving nodes.
	From, To int
	// Kind labels the protocol message type (for example "update",
	// "lock-req", "barrier-arrive") for accounting and debugging.
	Kind string
	// Payload carries the protocol-specific body.
	Payload any
	// Size is the modeled wire size in bytes, used by the latency model
	// and the byte accounting. Senders that do not care pass 0. A message a
	// wire transport received carries its payload's length instead.
	Size int
}

// LatencyModel describes how long a message takes to deliver.
type LatencyModel struct {
	// Fixed is charged to every message.
	Fixed time.Duration
	// PerByte is charged once per byte of Message.Size.
	PerByte time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
}

// delay computes the modeled delivery time for a message of the given size.
func (m LatencyModel) delay(size int, r *rand.Rand) time.Duration {
	d := m.Fixed + time.Duration(size)*m.PerByte
	if m.Jitter > 0 && r != nil {
		d += time.Duration(r.Int63n(int64(m.Jitter)))
	}
	return d
}

// zero reports whether the model never delays messages.
func (m LatencyModel) zero() bool {
	return m.Fixed == 0 && m.PerByte == 0 && m.Jitter == 0
}

// Config configures a Fabric.
type Config struct {
	// Nodes is the number of processes; node IDs are 0..Nodes-1.
	Nodes int
	// Latency is the delivery latency model. The zero value delivers
	// immediately, which is the deterministic mode used by tests.
	Latency LatencyModel
	// Seed seeds the jitter source. Ignored when Latency.Jitter is zero.
	Seed int64
}

// Stats is a snapshot of fabric accounting.
//
// Copy-on-read contract: every producer (Fabric.Stats, the tcp transport's
// Stats) builds the slice and maps fresh on each call, so a snapshot is
// never aliased by live counters — callers may hold, mutate, or hand it to
// another goroutine freely while traffic continues. Clone extends the same
// guarantee to copies of a snapshot. The JSON tags are the keys of the
// metrics registry's "net" section.
type Stats struct {
	// MessagesSent and BytesSent are totals across all nodes.
	MessagesSent uint64 `json:"messagesSent"`
	BytesSent    uint64 `json:"bytesSent"`
	// PerNodeSent counts messages sent by each node.
	PerNodeSent []uint64 `json:"perNodeSent,omitempty"`
	// PerKind counts messages sent per Kind label.
	PerKind map[string]uint64 `json:"perKind,omitempty"`
	// PerKindBytes counts modeled wire bytes sent per Kind label. Batching
	// experiments read it to separate frame-count savings from payload
	// growth: a batch frame is one message but carries many updates' bytes.
	PerKindBytes map[string]uint64 `json:"perKindBytes,omitempty"`
}

// NewStats returns an empty snapshot of an n-node deployment, its slice and
// maps allocated for KindCounts.AddTo.
func NewStats(n int) Stats {
	return Stats{
		PerNodeSent:  make([]uint64, n),
		PerKind:      make(map[string]uint64),
		PerKindBytes: make(map[string]uint64),
	}
}

// Clone returns a deep copy: the slice and both maps are duplicated, so
// mutating either snapshot never shows through the other.
func (s Stats) Clone() Stats {
	out := s
	if s.PerNodeSent != nil {
		out.PerNodeSent = append([]uint64(nil), s.PerNodeSent...)
	}
	if s.PerKind != nil {
		out.PerKind = make(map[string]uint64, len(s.PerKind))
		for k, v := range s.PerKind {
			out.PerKind[k] = v
		}
	}
	if s.PerKindBytes != nil {
		out.PerKindBytes = make(map[string]uint64, len(s.PerKindBytes))
		for k, v := range s.PerKindBytes {
			out.PerKindBytes[k] = v
		}
	}
	return out
}

// String formats the stats compactly for experiment output.
func (s Stats) String() string {
	kinds := make([]string, 0, len(s.PerKind))
	for k := range s.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := fmt.Sprintf("msgs=%d bytes=%d", s.MessagesSent, s.BytesSent)
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, s.PerKind[k])
	}
	return out
}

// Fabric is a simulated message-passing network with reliable FIFO channels
// between every ordered pair of distinct nodes. A node never sends to
// itself: there is no i->i channel, and such a send is an ErrInvalidNode.
type Fabric struct {
	n       int
	latency LatencyModel

	// pairs[i*n+j] is the channel from node i to node j, nil for i == j.
	// Each channel counts what was sent on it; Stats sums them.
	pairs []*pair
	// delayFactor[i*n+j] scales the latency model on the i->j channel in
	// 1/1000ths (1000 = nominal). Heterogeneous link speeds let
	// experiments model congested or remote paths.
	delayFactor []atomic.Int64
	// inboxes[j] receives delivered messages for node j.
	inboxes []*Inbox

	rngMu sync.Mutex
	rng   *rand.Rand

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// ErrInvalidNode is returned for out-of-range node IDs.
var ErrInvalidNode = errors.New("network: invalid node id")

// New creates a fabric with cfg.Nodes nodes and starts its delivery workers.
// Callers must Close the fabric to stop the workers.
func New(cfg Config) (*Fabric, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("network: %d nodes: %w", cfg.Nodes, ErrInvalidNode)
	}
	f := &Fabric{
		n:           cfg.Nodes,
		latency:     cfg.Latency,
		pairs:       make([]*pair, cfg.Nodes*cfg.Nodes),
		delayFactor: make([]atomic.Int64, cfg.Nodes*cfg.Nodes),
		inboxes:     make([]*Inbox, cfg.Nodes),
		done:        make(chan struct{}),
	}
	for i := range f.delayFactor {
		f.delayFactor[i].Store(1000)
	}
	if cfg.Latency.Jitter > 0 {
		f.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	for j := range f.inboxes {
		f.inboxes[j] = NewInbox()
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := 0; j < cfg.Nodes; j++ {
			if i == j {
				continue
			}
			q := newPair(f.inboxes[j])
			f.pairs[i*cfg.Nodes+j] = q
			f.wg.Add(1)
			go f.pump(q, &f.delayFactor[i*cfg.Nodes+j])
		}
	}
	return f, nil
}

// pump moves messages from one pair channel into the destination inbox,
// sleeping the modeled latency per message. Sequential processing preserves
// per-pair FIFO order. It runs holding the inbox's lock, which the waits on
// the channel and the modeled latency release: with a zero model a message
// goes from the queue into the inbox within one hold.
func (f *Fabric) pump(src *pair, factor *atomic.Int64) {
	defer f.wg.Done()
	src.in.mu.Lock()
	defer src.in.mu.Unlock()
	for {
		m, ok := src.popLocked()
		if !ok {
			return
		}
		if !f.latency.zero() {
			src.in.mu.Unlock()
			ok := f.sleep(m.Size, factor)
			src.in.mu.Lock()
			if !ok {
				return
			}
		}
		src.in.pushLocked(m)
	}
}

// sleep waits out the modeled latency of a message of the given size on a
// channel with the given delay factor. It reports false if the fabric closed
// first.
func (f *Fabric) sleep(size int, factor *atomic.Int64) bool {
	var d time.Duration
	if f.rng != nil {
		f.rngMu.Lock()
		d = f.latency.delay(size, f.rng)
		f.rngMu.Unlock()
	} else {
		d = f.latency.delay(size, nil)
	}
	d = time.Duration(int64(d) * factor.Load() / 1000)
	if d <= 0 {
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-f.done:
		return false
	}
}

// Nodes returns the number of nodes in the fabric.
func (f *Fabric) Nodes() int { return f.n }

// Send enqueues m for delivery on the (m.From, m.To) channel. It never
// blocks. Send returns an error only for invalid node IDs, a send to self
// among them.
func (f *Fabric) Send(m Message) error {
	if !f.link(m.From, m.To) {
		return fmt.Errorf("network: send %d->%d: %w", m.From, m.To, ErrInvalidNode)
	}
	f.deliver(m.From, m.To, m)
	return nil
}

// deliver routes m onto the (from, to) channel, which accounts it, in one hold
// of the destination inbox's lock. With a zero latency model an idle channel
// hands the message straight to the inbox without waking the pair's pump
// goroutine; otherwise (or when the channel is busy or held) it enqueues for
// the pump.
func (f *Fabric) deliver(from, to int, m Message) {
	q := f.pairs[from*f.n+to]
	q.in.mu.Lock()
	q.sendLocked(m, f.latency.zero())
	q.in.mu.Unlock()
}

// Broadcast sends m to every node except the sender. The per-destination
// copies share From, Kind, Payload, and Size.
func (f *Fabric) Broadcast(from int, kind string, payload any, size int) error {
	if from < 0 || from >= f.n {
		return fmt.Errorf("network: broadcast from %d: %w", from, ErrInvalidNode)
	}
	for to := 0; to < f.n; to++ {
		if to == from {
			continue
		}
		f.deliver(from, to, Message{From: from, To: to, Kind: kind, Payload: payload, Size: size})
	}
	return nil
}

// Recv blocks until a message for node is delivered. The second result is
// false after the fabric is closed and the inbox drained. At most one
// goroutine may be receiving for a given node at a time (see Inbox).
func (f *Fabric) Recv(node int) (Message, bool) {
	if node < 0 || node >= f.n {
		return Message{}, false
	}
	return f.inboxes[node].Pop()
}

// link reports whether from -> to is a channel: two distinct nodes.
func (f *Fabric) link(from, to int) bool {
	return from >= 0 && from < f.n && to >= 0 && to < f.n && from != to
}

// Pending reports the number of undelivered messages queued on the channel
// from -> to. It is a test aid.
func (f *Fabric) Pending(from, to int) int {
	if !f.link(from, to) {
		return 0
	}
	return f.pairs[from*f.n+to].len()
}

// Hold pauses delivery on the channel from -> to. Messages continue to be
// accepted and remain queued in FIFO order. Tests use Hold/Release to build
// adversarial delivery schedules that are still legal under the FIFO-channel
// model.
func (f *Fabric) Hold(from, to int) error {
	if !f.link(from, to) {
		return fmt.Errorf("network: hold %d->%d: %w", from, to, ErrInvalidNode)
	}
	f.pairs[from*f.n+to].hold()
	return nil
}

// Release resumes delivery on the channel from -> to.
func (f *Fabric) Release(from, to int) error {
	if !f.link(from, to) {
		return fmt.Errorf("network: release %d->%d: %w", from, to, ErrInvalidNode)
	}
	f.pairs[from*f.n+to].release()
	return nil
}

// Isolate holds every channel into and out of node. Heal with Rejoin.
func (f *Fabric) Isolate(node int) error {
	if node < 0 || node >= f.n {
		return fmt.Errorf("network: isolate %d: %w", node, ErrInvalidNode)
	}
	for other := 0; other < f.n; other++ {
		if other == node {
			continue
		}
		f.pairs[node*f.n+other].hold()
		f.pairs[other*f.n+node].hold()
	}
	return nil
}

// Rejoin releases every channel into and out of node.
func (f *Fabric) Rejoin(node int) error {
	if node < 0 || node >= f.n {
		return fmt.Errorf("network: rejoin %d: %w", node, ErrInvalidNode)
	}
	for other := 0; other < f.n; other++ {
		if other == node {
			continue
		}
		f.pairs[node*f.n+other].release()
		f.pairs[other*f.n+node].release()
	}
	return nil
}

// SetDelayFactor scales the latency model on the from -> to channel: 1.0 is
// nominal, 10 makes the link ten times slower. Heterogeneous link speeds
// model congested or remote paths; the ablation experiments use them to
// separate the propagation modes. Factors below 0.001 are clamped to 0.001.
func (f *Fabric) SetDelayFactor(from, to int, factor float64) error {
	if !f.link(from, to) {
		return fmt.Errorf("network: delay factor %d->%d: %w", from, to, ErrInvalidNode)
	}
	milli := int64(factor * 1000)
	if milli < 1 {
		milli = 1
	}
	f.delayFactor[from*f.n+to].Store(milli)
	return nil
}

// Stats returns a snapshot of the accounting counters: the sum of what every
// channel counted, read one destination — one lock hold — at a time.
func (f *Fabric) Stats() Stats {
	s := NewStats(f.n)
	for to, in := range f.inboxes {
		in.mu.Lock()
		for from := 0; from < f.n; from++ {
			if from != to {
				f.pairs[from*f.n+to].kinds.AddTo(&s, from)
			}
		}
		in.mu.Unlock()
	}
	return s
}

// Close stops all delivery workers and unblocks receivers. It is idempotent
// and waits for the workers to exit.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		close(f.done)
		for _, q := range f.pairs {
			if q != nil {
				q.close()
			}
		}
		f.wg.Wait()
		for _, in := range f.inboxes {
			in.Close()
		}
	})
}
