package tcp

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/syncmgr"
	"mixedmem/internal/transport"
)

// ledger is one node's own account of what it sent, by kind: the reference
// its Stats is checked against.
type ledger struct {
	msgs, bytes map[string]uint64
}

func newLedger() *ledger {
	return &ledger{msgs: map[string]uint64{}, bytes: map[string]uint64{}}
}

// send and broadcast record a message only if the transport accepted it.
func (l *ledger) send(tr *Transport, m transport.Message) {
	if tr.Send(m) == nil {
		l.msgs[m.Kind]++
		l.bytes[m.Kind] += uint64(m.Size)
	}
}

func (l *ledger) broadcast(tr *Transport, from int, kind string, payload any, size int) {
	if tr.Broadcast(from, kind, payload, size) == nil {
		copies := uint64(tr.Nodes() - 1)
		l.msgs[kind] += copies
		l.bytes[kind] += copies * uint64(size)
	}
}

// check compares node id's Stats snapshot against the ledger, field by field.
func (l *ledger) check(t *testing.T, what string, id int, s transport.Stats) {
	t.Helper()
	var msgs, bytes uint64
	for k, v := range l.msgs {
		msgs += v
		bytes += l.bytes[k]
		if s.PerKind[k] != v || s.PerKindBytes[k] != l.bytes[k] {
			t.Errorf("%s, node %d: kind %q: stats %d msgs / %d bytes, ledger %d / %d",
				what, id, k, s.PerKind[k], s.PerKindBytes[k], v, l.bytes[k])
		}
	}
	if len(s.PerKind) != len(l.msgs) || len(s.PerKindBytes) != len(l.msgs) {
		t.Errorf("%s, node %d: stats name %d kinds (%d with bytes), ledger %d: %v",
			what, id, len(s.PerKind), len(s.PerKindBytes), len(l.msgs), s.PerKind)
	}
	if s.MessagesSent != msgs || s.BytesSent != bytes {
		t.Errorf("%s, node %d: totals %d msgs / %d bytes, ledger %d / %d", what, id, s.MessagesSent, s.BytesSent, msgs, bytes)
	}
	for i, v := range s.PerNodeSent {
		want := uint64(0) // a node sends only as itself
		if i == id {
			want = msgs
		}
		if v != want {
			t.Errorf("%s, node %d: PerNodeSent[%d] = %d, want %d", what, id, i, v, want)
		}
	}
}

// TestStatsMatchesSenderLedger is the differential test for accounting that
// lives in the channels: every node's sender keeps its own per-kind ledger,
// and the node's Stats must equal it whichever way a message went — to a peer,
// to itself, in a broadcast, or accepted after Close and dropped — while
// rejected sends (a node ID out of range or not the sender's, a payload no
// codec encodes) count nowhere. Snapshots taken concurrently with the traffic
// must be internally consistent and never run backwards.
func TestStatsMatchesSenderLedger(t *testing.T) {
	const n, rounds = 3, 600
	trs := newLoopbackT(t, n)
	var recvWG sync.WaitGroup
	for id, tr := range trs {
		recvWG.Add(1)
		go func(id int, tr *Transport) {
			defer recvWG.Done()
			for {
				if _, ok := tr.Recv(id); !ok {
					return
				}
			}
		}(id, tr)
	}

	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		last := make([]uint64, n)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id, tr := range trs {
				s := tr.Stats()
				var byKind, byNode uint64
				for _, v := range s.PerKind {
					byKind += v
				}
				for _, v := range s.PerNodeSent {
					byNode += v
				}
				if byKind != s.MessagesSent || byNode != s.MessagesSent || s.PerNodeSent[id] != s.MessagesSent || s.MessagesSent < last[id] {
					t.Errorf("node %d: inconsistent snapshot: %d msgs, %d by kind, %d by node (%d its own), previous %d",
						id, s.MessagesSent, byKind, byNode, s.PerNodeSent[id], last[id])
					return
				}
				last[id] = s.MessagesSent
			}
		}
	}()

	kinds := []string{"tcptest", "lock-req", "bar-arrive"}
	ledgers := make([]*ledger, n)
	for id := range ledgers {
		ledgers[id] = newLedger()
	}
	traffic := func() {
		var wg sync.WaitGroup
		for id, tr := range trs {
			wg.Add(1)
			go func(id int, tr *Transport, l *ledger) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					kind := kinds[i%3]
					var payload any
					if kind == "tcptest" {
						payload = uint64(i)
					}
					// Every destination in turn, this node included.
					l.send(tr, transport.Message{From: id, To: i % n, Kind: kind, Payload: payload, Size: i % 200})
					if i%4 == 0 {
						l.broadcast(tr, id, kinds[1+(i/4)%2], nil, 16)
					}
				}
				// Rejected sends: never counted.
				l.send(tr, transport.Message{From: id, To: n, Kind: "bad-to", Size: 8})
				l.send(tr, transport.Message{From: (id + 1) % n, To: id, Kind: "bad-from", Size: 8})
				l.send(tr, transport.Message{From: id, To: (id + 1) % n, Kind: "no-codec", Payload: "boom", Size: 8})
				l.broadcast(tr, (id+1)%n, "bad-bcast", nil, 8)
				l.broadcast(tr, id, "no-codec", "boom", 8)
			}(id, tr, ledgers[id])
		}
		wg.Wait()
	}
	checkAll := func(what string) {
		t.Helper()
		for id, tr := range trs {
			ledgers[id].check(t, what, id, tr.Stats())
		}
	}

	traffic()
	checkAll("open")
	for _, tr := range trs {
		tr.Close()
	}
	recvWG.Wait()
	traffic()
	close(stop)
	<-snapDone
	checkAll("after Close")
}

// TestStatsSnapshotConcurrentWithTraffic is the wire transport's half of
// the Stats copy-on-read race proof (run with -race): Stats and Diag
// snapshots taken while senders stream frames are freely mutable and never
// share state with the live counters.
func TestStatsSnapshotConcurrentWithTraffic(t *testing.T) {
	trs := newLoopbackT(t, 2)
	go func() {
		for {
			if _, ok := trs[1].Recv(1); !ok {
				return
			}
		}
	}()

	var senders sync.WaitGroup
	senders.Add(1)
	go func() {
		defer senders.Done()
		for k := 0; k < 1500; k++ {
			_ = trs[0].Send(transport.Message{
				From: 0, To: 1, Kind: "tcptest", Payload: uint64(k), Size: 8,
			})
		}
	}()
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := trs[0].Stats()
			s.PerKind["injected"] = 1
			if len(s.PerNodeSent) > 0 {
				s.PerNodeSent[0]++
			}
			c := s.Clone()
			if c.PerKind["injected"] != 1 {
				t.Error("clone lost a key")
				return
			}
			_ = trs[0].Diag() // value snapshot; nothing to alias
		}
	}()
	senders.Wait()
	close(stop)
	<-snapDone

	s := trs[0].Stats()
	if s.PerKind["injected"] != 0 {
		t.Fatalf("snapshot mutation leaked into the transport: %+v", s)
	}
	if s.MessagesSent == 0 || s.PerKind["tcptest"] == 0 {
		t.Fatalf("no traffic accounted: %+v", s)
	}
}

// tap is a node's transport that keeps its own account of what it received,
// by kind: the messages and the bytes of their payloads, which is what a
// received message's Size is.
type tap struct {
	*Transport
	mu          sync.Mutex
	msgs, bytes map[string]uint64
}

func (t *tap) Recv(node int) (transport.Message, bool) {
	m, ok := t.Transport.Recv(node)
	if ok {
		t.mu.Lock()
		t.msgs[m.Kind]++
		t.bytes[m.Kind] += uint64(m.Size)
		t.mu.Unlock()
	}
	return m, ok
}

// TestCountedBytesAreShippedBytes: the bytes a sender's Stats count — the Size
// the runtime gives each message, its payload's size — are the payload bytes
// its channels carry, summed over the receivers, kind by kind. So
// wire_bytes_per_op measured over tcp is the wire's own count. The update rows
// have node 0 batch and node 1 not, so both update kinds flow, each under a
// vector timestamp and, with a scope, under dependency matrices with elided
// copies mixed in. The synchronisation rows run the lock and barrier protocols
// with their managers on node 0: lazy and demand-driven lock cycles (the
// latter with write-sets), read locks under eager propagation (whose flush
// probes and acknowledgements carry nothing, and count nothing), and global
// and subset barriers. The SC row has every process read, write and add to
// SC-labeled locations, so requests and replies cross to each owner.
func TestCountedBytesAreShippedBytes(t *testing.T) {
	const n, writes, rounds = 3, 200, 40
	locs := []string{"a", "b", "c", "d", "e"}
	scope := &dsm.ScopeMap{Readers: map[string][]int{}, CausalReaders: map[string][]int{}}
	for i, loc := range locs {
		scope.Readers[loc] = []int{0, 1, 2}
		scope.CausalReaders[loc] = []int{i % n}
	}
	type proc struct {
		id    int
		node  *dsm.Node
		locks *syncmgr.Client
		bars  *syncmgr.BarrierClient
	}
	updates := func(p proc) {
		if p.id == 2 {
			return
		}
		for k := 0; k < writes; k++ {
			if k%3 == 0 {
				p.node.Add(locs[k%len(locs)], 1)
			} else {
				p.node.Write(locs[(k+p.id)%len(locs)], int64(k))
			}
		}
	}
	lockCycles := func(p proc) {
		for k := 0; k < rounds; k++ {
			lock := []string{"l", "lock[12]"}[k%2]
			p.locks.WLock(lock)
			p.node.Write(locs[(k+p.id)%len(locs)], int64(k))
			p.node.Write(locs[(k+2*p.id)%len(locs)], int64(k))
			p.locks.WUnlock(lock)
		}
	}
	readLocks := func(p proc) {
		for k := 0; k < rounds; k++ {
			if k%4 == p.id {
				p.locks.WLock("l")
				p.node.Write(locs[k%len(locs)], int64(k))
				p.locks.WUnlock("l")
				continue
			}
			p.locks.RLock("l")
			p.node.ReadCausal(locs[k%len(locs)])
			p.locks.RUnlock("l")
		}
	}
	barriers := func(p proc) {
		for k := 0; k < rounds; k++ {
			p.node.Write(locs[(k+p.id)%len(locs)], int64(k))
			p.bars.Barrier()
		}
	}
	subsetBarriers := func(p proc) {
		if p.id == 0 {
			return
		}
		for k := 0; k < rounds; k++ {
			p.node.Write(locs[(k+p.id)%len(locs)], int64(k))
			p.bars.BarrierGroup("pair", []int{1, 2})
		}
	}
	scLabels := map[string]history.Label{}
	for i := 0; i < 6; i++ {
		scLabels["sc/"+strconv.Itoa(i)] = history.LabelSC
	}
	scAccesses := func(p proc) {
		for k := 0; k < rounds; k++ {
			loc := "sc/" + strconv.Itoa((k+p.id)%len(scLabels))
			switch k % 3 {
			case 0:
				p.node.WriteSC(loc, int64(k))
			case 1:
				p.node.Add(loc, 1)
			default:
				p.node.ReadSC(loc)
			}
		}
	}
	lockKinds := []string{syncmgr.KindLockReq, syncmgr.KindLockGrant, syncmgr.KindLockRel}
	barKinds := []string{syncmgr.KindBarArrive, syncmgr.KindBarRelease}
	for _, tc := range []struct {
		name   string
		scope  *dsm.ScopeMap
		labels map[string]history.Label
		mode   syncmgr.PropagationMode
		run    func(proc)
		kinds  []string // the kinds the row must carry
	}{
		{"broadcast", nil, nil, syncmgr.Lazy, updates, []string{dsm.KindUpdate, dsm.KindUpdateBatch}},
		{"scoped", scope, nil, syncmgr.Lazy, updates, []string{dsm.KindUpdate, dsm.KindUpdateBatch}},
		{"lazy locks", nil, nil, syncmgr.Lazy, lockCycles, lockKinds},
		{"demand-driven locks", nil, nil, syncmgr.DemandDriven, lockCycles, lockKinds},
		{"read locks", nil, nil, syncmgr.Eager, readLocks, append(lockKinds, syncmgr.KindFlush, syncmgr.KindFlushAck)},
		{"global barriers", nil, nil, syncmgr.Lazy, barriers, barKinds},
		{"subset barriers", nil, nil, syncmgr.Lazy, subsetBarriers, barKinds},
		{"sc", nil, scLabels, syncmgr.Lazy, scAccesses, []string{dsm.KindSCRequest, dsm.KindSCReply}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := newLoopbackT(t, n)
			taps := make([]*tap, n)
			procs := make([]proc, n)
			dispatchers := make([]*syncmgr.Dispatcher, n)
			for i := range procs {
				taps[i] = &tap{Transport: trs[i], msgs: map[string]uint64{}, bytes: map[string]uint64{}}
				dispatchers[i] = syncmgr.NewDispatcher(i, taps[i])
				nd, err := dsm.NewNode(dsm.Config{ID: i, N: n, Transport: taps[i], Scope: tc.scope,
					Labels: tc.labels, Handler: dispatchers[i].Handle,
					Batch: dsm.BatchConfig{Enabled: i == 0, MaxUpdates: 4, Linger: time.Hour}})
				if err != nil {
					t.Fatalf("NewNode(%d): %v", i, err)
				}
				procs[i] = proc{id: i, node: nd,
					locks: syncmgr.NewClient(nd, dispatchers[i], 0, tc.mode),
					bars:  syncmgr.NewBarrierClient(nd, dispatchers[i], 0)}
			}
			syncmgr.NewManager(dispatchers[0], tc.mode)
			syncmgr.NewBarrierManager(dispatchers[0], n)
			t.Cleanup(func() {
				for _, tr := range trs {
					tr.Close()
				}
				for _, p := range procs {
					p.node.Close()
				}
			})
			var wg sync.WaitGroup
			for _, p := range procs {
				wg.Add(1)
				go func(p proc) {
					defer wg.Done()
					tc.run(p)
					p.node.FlushUpdates()
				}(p)
			}
			wg.Wait()
			sent := func(kind string) (msgs, bytes uint64) {
				for _, tr := range trs {
					s := tr.Stats()
					msgs += s.PerKind[kind]
					bytes += s.PerKindBytes[kind]
				}
				return msgs, bytes
			}
			received := func(kind string) (msgs, bytes uint64) {
				for _, tp := range taps {
					tp.mu.Lock()
					msgs += tp.msgs[kind]
					bytes += tp.bytes[kind]
					tp.mu.Unlock()
				}
				return msgs, bytes
			}
			kinds := map[string]bool{}
			for _, tr := range trs {
				for kind := range tr.Stats().PerKind {
					kinds[kind] = true
				}
			}
			if !eventually(func() bool {
				for kind := range kinds {
					s, _ := sent(kind)
					if r, _ := received(kind); r != s {
						return false
					}
				}
				return true
			}) {
				t.Fatal("the receivers never got every message sent")
			}
			for _, kind := range tc.kinds {
				if sm, _ := sent(kind); sm == 0 {
					t.Errorf("%s: no message sent", kind)
				}
			}
			for kind := range kinds {
				sm, sb := sent(kind)
				rm, rb := received(kind)
				if sb != rb {
					t.Errorf("%s: %d msgs / %d bytes counted by the senders, %d / %d payload bytes received",
						kind, sm, sb, rm, rb)
				}
			}
		})
	}
}
