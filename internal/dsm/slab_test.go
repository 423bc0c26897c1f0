package dsm

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// Sent updates and their timestamps are carved from per-node slabs
// (issue.go) and shared by reference with every in-process receiver, so the
// contract they rest on is that nothing writes to one after it was handed to
// the transport. These tests hold on to sent metadata across more than two
// slabs of further writes and read it back.

// frozenPayload deep-copies a captured update or batch payload.
func frozenPayload(t *testing.T, payload any) any {
	t.Helper()
	freeze := func(u Update) Update {
		u.TS, u.Deps = u.TS.Clone(), u.Deps.Clone()
		return u
	}
	switch p := payload.(type) {
	case *Update:
		u := freeze(*p)
		return &u
	case *UpdateBatch:
		b := *p
		b.Deps = p.Deps.Clone()
		b.Updates = make([]Update, len(p.Updates))
		for i, u := range p.Updates {
			b.Updates[i] = freeze(u)
		}
		return &b
	}
	t.Fatalf("captured a %T", payload)
	return nil
}

// TestSentUpdatesAreImmutable captures what a sender emits — single updates
// from the slab when unbatched, coalesced batches from the outbox's slab
// whose entries alias the timestamp slab when batched, and under a scope each
// with an address-matrix snapshot from the matrix slabs — freezes a copy, lets
// the sender write on with its clock moving (a peer's writes keep arriving,
// and under a scope each one settled merges into the sender's matrix), and
// compares.
func TestSentUpdatesAreImmutable(t *testing.T) {
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {0, 1, 2}, "b": {0, 1, 2}},
		CausalReaders: map[string][]int{"a": {0, 1, 2}, "b": {0, 1, 2}},
	}
	for _, tc := range []struct {
		name  string
		scope *ScopeMap
		batch BatchConfig
	}{
		{"batched=false", nil, BatchConfig{}},
		{"batched=true", nil, BatchConfig{Enabled: true, MaxUpdates: 4, Linger: time.Hour}},
		{"scoped,batched=false", scope, BatchConfig{}},
		{"scoped,batched=true", scope, BatchConfig{Enabled: true, MaxUpdates: 4, Linger: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3
			f, err := network.New(network.Config{Nodes: n})
			if err != nil {
				t.Fatalf("network.New: %v", err)
			}
			capture := &captureTransport{Transport: f, to: 2, got: make([][]network.Message, n)}
			nodes := make([]*Node, n)
			for i := range nodes {
				cfg := Config{ID: i, N: n, Transport: capture, Scope: tc.scope, Batch: tc.batch}
				if i == 2 {
					cfg.Transport = f
				}
				if nodes[i], err = NewNode(cfg); err != nil {
					t.Fatalf("NewNode(%d): %v", i, err)
				}
			}
			defer func() {
				f.Close()
				for _, nd := range nodes {
					nd.Close()
				}
			}()

			value := int64(0)
			// One round: both senders write (the repeated location coalesces
			// under batching), flush, and absorb each other's updates, so
			// every round's stamps differ from the last round's.
			round := func() {
				for _, s := range []int{0, 1} {
					for _, loc := range []string{"a", "b", "a"} {
						value++
						nodes[s].Write(loc, value)
					}
				}
				sent0, sent1 := nodes[0].SentSeqs(nil), nodes[1].SentSeqs(nil)
				nodes[0].WaitReceived([]uint64{0, sent1[0], 0})
				nodes[1].WaitReceived([]uint64{sent0[1], 0, 0})
			}
			for i := 0; i < 5; i++ {
				round()
			}
			capture.mu.Lock()
			held := append([]network.Message(nil), capture.got[0]...)
			capture.mu.Unlock()
			if len(held) < 5 {
				t.Fatalf("captured only %d messages from node 0", len(held))
			}
			frozen := make([]any, len(held))
			stamped := 0
			for i, m := range held {
				frozen[i] = frozenPayload(t, m.Payload)
				switch p := m.Payload.(type) {
				case *Update:
					stamped += p.TS.Len() + p.Deps.Len()
				case *UpdateBatch:
					stamped += p.Updates[len(p.Updates)-1].TS.Len() + p.Deps.Len()
				}
			}
			if stamped == 0 {
				t.Fatal("no captured message carries a timestamp or a matrix")
			}

			// Three writes a round: well past two slabs of updates, stamps,
			// snapshots and batches.
			for i := 0; i < slabSize; i++ {
				round()
			}
			for i, m := range held {
				if !reflect.DeepEqual(m.Payload, frozen[i]) {
					t.Fatalf("message %d changed after it was sent:\n now %+v\n was %+v", i, m.Payload, frozen[i])
				}
			}
		})
	}
}

// payloadLog records every update payload a node hands its transport, by
// destination, and how many Broadcast calls carried them; it delivers
// everything.
type payloadLog struct {
	transport.Transport
	mu         sync.Mutex
	to         map[int][]any
	broadcasts int
}

func (l *payloadLog) Send(m network.Message) error {
	l.mu.Lock()
	l.to[m.To] = append(l.to[m.To], m.Payload)
	l.mu.Unlock()
	return l.Transport.Send(m)
}

func (l *payloadLog) Broadcast(from int, kind string, payload any, size int) error {
	l.mu.Lock()
	l.broadcasts++
	for j := 0; j < l.Nodes(); j++ {
		if j != from {
			l.to[j] = append(l.to[j], payload)
		}
	}
	l.mu.Unlock()
	return l.Transport.Broadcast(from, kind, payload, size)
}

// TestScopedCopiesShareOnePayload: an unbatched scoped-causal write carries
// nothing that differs per destination, so all its copies are one *Update —
// handed to a single Broadcast when every peer is a causal reader (a location
// the scope does not name), and to one Send per reader for a registered
// subset.
func TestScopedCopiesShareOnePayload(t *testing.T) {
	const n = 4
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	log := &payloadLog{Transport: f, to: make(map[int][]any)}
	scope := &ScopeMap{
		Readers:       map[string][]int{"sub": {0, 1, 2}},
		CausalReaders: map[string][]int{"sub": {0, 1, 2}},
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{ID: i, N: n, Transport: f, Scope: scope}
		if i == 0 {
			cfg.Transport = log
		}
		if nodes[i], err = NewNode(cfg); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for _, tc := range []struct {
		loc        string
		readers    []int
		broadcasts int
	}{
		{"unlisted", []int{1, 2, 3}, 1},
		{"sub", []int{1, 2}, 0},
	} {
		log.mu.Lock()
		clear(log.to)
		log.broadcasts = 0
		log.mu.Unlock()
		nodes[0].Write(tc.loc, 1)
		log.mu.Lock()
		var shared *Update
		for j := 1; j < n; j++ {
			got := log.to[j]
			want := 0
			if slices.Contains(tc.readers, j) {
				want = 1
			}
			if len(got) != want {
				t.Errorf("%s: node %d got %d copies, want %d", tc.loc, j, len(got), want)
				continue
			}
			if want == 0 {
				continue
			}
			u := got[0].(*Update)
			if shared == nil {
				shared = u
			}
			if u != shared || u.Deps == nil {
				t.Errorf("%s: node %d's copy is %p (deps %v), want the shared %p with a matrix", tc.loc, j, u, u.Deps, shared)
			}
		}
		if log.broadcasts != tc.broadcasts {
			t.Errorf("%s: %d Broadcast calls, want %d", tc.loc, log.broadcasts, tc.broadcasts)
		}
		log.mu.Unlock()
	}
}

// TestParkedGroupKeepsItsStamp: a group parked at a receiver waits on the
// sender's own timestamp words (the fabric passes them by reference). The
// sender writing two more slabs' worth must leave them as they were, and the
// whole backlog must still drain in order on release.
func TestParkedGroupKeepsItsStamp(t *testing.T) {
	nodes, f := batchedCluster(t, 3, BatchConfig{})
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("a", 1)
	nodes[1].WaitReceived([]uint64{1, 0, 0})
	const later = 2*slabSize + 7
	for i := 1; i <= 1+later; i++ {
		nodes[1].Write("x", int64(i)) // every one depends on the held a=1
		if i == 1 {
			nodes[2].WaitReceived([]uint64{0, 1, 0})
		}
	}
	r := nodes[2]
	r.WaitReceived([]uint64{0, 1 + later, 0})
	r.clockMu.Lock()
	q := &r.pending[1]
	if q.size != 1+later {
		r.clockMu.Unlock()
		t.Fatalf("%d groups parked, want %d", q.size, 1+later)
	}
	for i := 0; i < q.size; i++ {
		g := &q.buf[(q.head+i)&(len(q.buf)-1)]
		if want := (vclock.VC{1, uint64(i + 1), 0}); !reflect.DeepEqual(g.need, want) {
			r.clockMu.Unlock()
			t.Fatalf("parked group %d waits on %v, want %v", i, g.need, want)
		}
	}
	r.clockMu.Unlock()
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	r.WaitCausalApplied(sentTo(nodes, 2))
	if got := r.ReadCausal("x"); got != 1+later {
		t.Fatalf("causal x = %d after the backlog drained, want %d", got, 1+later)
	}
	if s := r.Stats(); s.PendingGroups != 0 {
		t.Fatalf("%d groups still parked", s.PendingGroups)
	}
}

// TestParkedScopedGroupKeepsItsMatrix is the obMatrix twin: a group parked at
// a receiver waits on its row of the sender's address-matrix snapshot and
// merges the whole snapshot when it settles, both carved from the sender's
// matrix slabs. The sender writing two more slabs' worth must leave every
// parked group's need and deps as they were, and the backlog must drain in
// order on release.
func TestParkedScopedGroupKeepsItsMatrix(t *testing.T) {
	const n = 3
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	scope := &ScopeMap{
		Readers:       map[string][]int{"a": {1, 2}, "x": {2}},
		CausalReaders: map[string][]int{"a": {1, 2}, "x": {2}},
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: n, Transport: f, Scope: scope}); err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	if err := f.Hold(0, 2); err != nil {
		t.Fatal(err)
	}
	nodes[0].Write("a", 1)
	nodes[1].WaitCausalApplied([]uint64{1, 0, 0}) // merges a=1's matrix
	const later = 2*slabSize + 7
	for i := 1; i <= 1+later; i++ {
		nodes[1].Write("x", int64(i)) // every one depends on the held a=1
	}
	r := nodes[2]
	r.WaitReceived([]uint64{0, 1 + later, 0})
	r.clockMu.Lock()
	q := &r.pending[1]
	if q.size != 1+later {
		r.clockMu.Unlock()
		t.Fatalf("%d groups parked, want %d", q.size, 1+later)
	}
	for i := 0; i < q.size; i++ {
		g := q.at(i)
		// a=1 went to 1 and 2; x i+1 to 2, after x i.
		want := vclock.NewMatrix(n)
		want.Set(1, 0, 1)
		want.Set(2, 0, 1)
		want.Set(2, 1, uint64(i+1))
		if g.ob != obMatrix || g.firstSeq != uint64(i+1) || !reflect.DeepEqual(g.need, want.Row(2)) ||
			!reflect.DeepEqual(g.deps, want) {
			r.clockMu.Unlock()
			t.Fatalf("parked group %d: ob %d, seq %d, need %v, deps %v; want seq %d, deps %v",
				i, g.ob, g.firstSeq, g.need, g.deps, i+1, want)
		}
	}
	r.clockMu.Unlock()
	if err := f.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	r.WaitCausalApplied(sentTo(nodes, 2))
	if got := r.ReadCausal("x"); got != 1+later {
		t.Fatalf("causal x = %d after the backlog drained, want %d", got, 1+later)
	}
	if s := r.Stats(); s.PendingGroups != 0 {
		t.Fatalf("%d groups still parked", s.PendingGroups)
	}
}

// TestUnbatchedWriteAllocFloor pins the unbatched issue path: the sent update
// and (for a causal write) its timestamp come out of slabs, so slabSize
// writes cost one allocation of each and nothing per write — no boxing of the
// update into the message, no clock clone. The receiver's apply path runs
// inside the measurement and allocates nothing either. Before the slabs the
// same loop cost slabSize boxings, and as many clock clones when causal.
func TestUnbatchedWriteAllocFloor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pramOnly bool
		perSlab  float64
	}{
		{"pram", true, 1},    // the update slab
		{"causal", false, 2}, // and the timestamp slab
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := allocCluster(t, tc.pramOnly, BatchConfig{})
			n := nodes[0]
			min := make([]uint64, 2)
			var v int64
			writeSlab := func() {
				for i := 0; i < slabSize; i++ {
					v++
					n.Write("steady", v)
				}
				min[0] += slabSize
				nodes[1].WaitReceived(min)
			}
			writeSlab() // warm the cells and the fabric's buffers
			allocs := testing.AllocsPerRun(50, writeSlab)
			// One allocation of slack per slab for the process-wide counter.
			if allocs > tc.perSlab+1 {
				t.Errorf("%d unbatched %s writes: %.2f allocs, want <= %.0f (one per slab)",
					slabSize, tc.name, allocs, tc.perSlab+1)
			}
		})
	}
}
