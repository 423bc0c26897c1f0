package network

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recvWithin is Recv with a deadline, so a lost wake-up fails the test
// instead of hanging it. It preserves the one-receiver-per-node contract as
// long as the caller does not abandon a timed-out call and receive again.
func recvWithin(t *testing.T, f *Fabric, node int, d time.Duration) (Message, bool) {
	t.Helper()
	type result struct {
		m  Message
		ok bool
	}
	got := make(chan result, 1)
	go func() {
		m, ok := f.Recv(node)
		got <- result{m, ok}
	}()
	select {
	case r := <-got:
		return r.m, r.ok
	case <-time.After(d):
		t.Fatalf("Recv(%d) still blocked after %v", node, d)
		return Message{}, false
	}
}

// TestInboxFIFOAcrossBursts drives the burst queue the way a receiver that
// falls behind does: several senders push concurrently while the consumer
// sleeps every time it has used up a burst, so it finds a backlog (no wait)
// when it looks again; and the senders start each round only once the
// consumer has taken everything of the last one, so every round begins on an
// empty queue (a wait that only the next first push ends). Every message must
// arrive, in its sender's order, across many swaps; a wake-up lost to the
// signal-on-first-push rule would leave the consumer asleep on a non-empty
// queue and trip the deadline.
func TestInboxFIFOAcrossBursts(t *testing.T) {
	const senders, rounds, perRound = 4, 60, 50
	f := newTestFabric(t, senders+1)
	var received atomic.Int64
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					_ = f.Send(Message{From: s, To: 0, Kind: "seq", Payload: r*perRound + i})
				}
				// The consumer stops counting if it fails; the deadline
				// below then ends the test and the cleanup this loop.
				for received.Load() < int64((r+1)*perRound*senders) && !t.Failed() {
					runtime.Gosched()
				}
			}
		}(s)
	}

	done := make(chan struct{})
	var swaps int
	go func() {
		defer close(done)
		in := f.inboxes[0]
		next := make([]int, senders+1)
		for got := 0; got < senders*rounds*perRound; got++ {
			if in.exhausted() {
				// The burst is used up: the next Recv takes the queue.
				swaps++
				time.Sleep(20 * time.Microsecond)
			}
			m, ok := f.Recv(0)
			if !ok {
				t.Error("fabric closed early")
				return
			}
			if seq := m.Payload.(int); seq != next[m.From] {
				t.Errorf("sender %d: message %d arrived after %d", m.From, seq, next[m.From]-1)
				return
			}
			next[m.From]++
			received.Add(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer stuck: a push after the queue ran dry did not wake it")
	}
	wg.Wait()
	if swaps < rounds {
		t.Fatalf("%d burst swaps in %d rounds that each began on an empty queue", swaps, rounds)
	}
}

// TestInboxDrainsAfterClose: messages delivered to an inbox before Close are
// still handed out — both the rest of a burst the consumer already took and
// what was queued behind it — and only then does Recv report closed.
func TestInboxDrainsAfterClose(t *testing.T) {
	f, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		_ = f.Send(Message{From: 0, To: 1, Kind: "k", Payload: i})
	}
	if m, ok := recvWithin(t, f, 1, 5*time.Second); !ok || m.Payload.(int) != 0 {
		t.Fatalf("first message: %+v ok=%v", m, ok)
	}
	// Two more are in the consumer's burst; these two only in the queue.
	for i := 3; i < 5; i++ {
		_ = f.Send(Message{From: 0, To: 1, Kind: "k", Payload: i})
	}
	f.Close()
	_ = f.Send(Message{From: 0, To: 1, Kind: "k", Payload: 99}) // dropped
	for want := 1; want < 5; want++ {
		m, ok := recvWithin(t, f, 1, 5*time.Second)
		if !ok || m.Payload.(int) != want {
			t.Fatalf("after Close: got %+v ok=%v, want payload %d", m, ok, want)
		}
	}
	for i := 0; i < 2; i++ {
		if m, ok := recvWithin(t, f, 1, 5*time.Second); ok {
			t.Fatalf("Recv on a closed, drained inbox returned %+v", m)
		}
	}
}

// TestConsumedBurstPinsNoPayload: once the receiver has used up a burst and
// gone back to waiting, nothing in the fabric refers to the payloads it handed
// out — neither the inbox's chunks, cleared as each was used up, nor the pair
// channel they were pumped through.
func TestConsumedBurstPinsNoPayload(t *testing.T) {
	type blob struct{ pad [64]byte }
	f := newTestFabric(t, 3)
	var collected atomic.Int32
	const bypassed, pumped = 5, 100
	send := func(from, n int) {
		for i := 0; i < n; i++ {
			b := &blob{}
			runtime.SetFinalizer(b, func(*blob) { collected.Add(1) })
			_ = f.Send(Message{From: from, To: 0, Kind: "blob", Payload: b})
		}
	}
	send(1, bypassed)
	// Enough held messages to take the pump's channel through a compaction.
	if err := f.Hold(2, 0); err != nil {
		t.Fatal(err)
	}
	send(2, pumped)
	if err := f.Release(2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bypassed+pumped; i++ {
		if _, ok := recvWithin(t, f, 0, 5*time.Second); !ok {
			t.Fatal("fabric closed early")
		}
	}
	// The receiver goes back to waiting: that is when the used-up burst is
	// dropped. It stays blocked until the cleanup closes the fabric.
	go f.Recv(0)
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < bypassed+pumped {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d delivered payloads still reachable with the receiver idle",
				bypassed+pumped-int(collected.Load()), bypassed+pumped)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// ledger is a sender's own account of what it sent: the reference Stats is
// checked against.
type ledger struct {
	msgs, bytes map[string]uint64 // by kind
	perNode     []uint64
}

func newLedger(n int) *ledger {
	return &ledger{msgs: map[string]uint64{}, bytes: map[string]uint64{}, perNode: make([]uint64, n)}
}

func (l *ledger) add(from int, kind string, size, copies int) {
	l.msgs[kind] += uint64(copies)
	l.bytes[kind] += uint64(copies * size)
	l.perNode[from] += uint64(copies)
}

// send and broadcast record a message only if the fabric accepted it.
func (l *ledger) send(f *Fabric, from, to int, kind string, size int) {
	if f.Send(Message{From: from, To: to, Kind: kind, Size: size}) == nil {
		l.add(from, kind, size, 1)
	}
}

func (l *ledger) broadcast(f *Fabric, from int, kind string, size int) {
	if f.Broadcast(from, kind, nil, size) == nil {
		l.add(from, kind, size, f.Nodes()-1)
	}
}

func (l *ledger) merge(o *ledger) {
	for k, v := range o.msgs {
		l.msgs[k] += v
		l.bytes[k] += o.bytes[k]
	}
	for i, v := range o.perNode {
		l.perNode[i] += v
	}
}

// check compares a Stats snapshot against the ledger, field by field.
func (l *ledger) check(t *testing.T, what string, s Stats) {
	t.Helper()
	var msgs, bytes uint64
	for k, v := range l.msgs {
		msgs += v
		bytes += l.bytes[k]
		if s.PerKind[k] != v || s.PerKindBytes[k] != l.bytes[k] {
			t.Errorf("%s: kind %q: stats %d msgs / %d bytes, ledger %d / %d",
				what, k, s.PerKind[k], s.PerKindBytes[k], v, l.bytes[k])
		}
	}
	if len(s.PerKind) != len(l.msgs) || len(s.PerKindBytes) != len(l.msgs) {
		t.Errorf("%s: stats name %d kinds (%d with bytes), ledger %d: %v",
			what, len(s.PerKind), len(s.PerKindBytes), len(l.msgs), s.PerKind)
	}
	if s.MessagesSent != msgs || s.BytesSent != bytes {
		t.Errorf("%s: totals %d msgs / %d bytes, ledger %d / %d", what, s.MessagesSent, s.BytesSent, msgs, bytes)
	}
	for i, v := range l.perNode {
		if s.PerNodeSent[i] != v {
			t.Errorf("%s: PerNodeSent[%d] = %d, ledger %d", what, i, s.PerNodeSent[i], v)
		}
	}
}

// TestStatsMatchesSenderLedger is the differential test for accounting that
// lives in the pair channels: every sender keeps its own per-kind ledger, and
// Stats must equal the merged ledgers whichever way a message travelled —
// bypassed into the inbox, queued behind a hold and pumped after the release,
// pumped under a latency model, or accepted after Close and dropped — while
// rejected sends count nowhere. Snapshots taken concurrently with the traffic
// must be internally consistent and never run backwards.
func TestStatsMatchesSenderLedger(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency LatencyModel
		rounds  int
	}{
		{"bypass", LatencyModel{}, 1500},
		{"pumped", LatencyModel{Fixed: 20 * time.Microsecond, PerByte: time.Nanosecond}, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			f, err := New(Config{Nodes: n, Latency: tc.latency})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer f.Close()
			var recvWG sync.WaitGroup
			for id := 0; id < n; id++ {
				recvWG.Add(1)
				go func(id int) {
					defer recvWG.Done()
					for {
						if _, ok := f.Recv(id); !ok {
							return
						}
					}
				}(id)
			}

			stop := make(chan struct{})
			snapDone := make(chan struct{})
			go func() {
				defer close(snapDone)
				var last uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := f.Stats()
					var byKind, byNode uint64
					for _, v := range s.PerKind {
						byKind += v
					}
					for _, v := range s.PerNodeSent {
						byNode += v
					}
					if byKind != s.MessagesSent || byNode != s.MessagesSent || s.MessagesSent < last {
						t.Errorf("inconsistent snapshot: %d msgs, %d by kind, %d by node, previous %d",
							s.MessagesSent, byKind, byNode, last)
						return
					}
					last = s.MessagesSent
				}
			}()

			kinds := []string{"update", "lock-req", "bar-arrive"}
			total := newLedger(n)
			traffic := func() {
				ledgers := make([]*ledger, n)
				var wg sync.WaitGroup
				for id := 0; id < n; id++ {
					ledgers[id] = newLedger(n)
					wg.Add(1)
					go func(id int, l *ledger) {
						defer wg.Done()
						for i := 0; i < tc.rounds; i++ {
							l.send(f, id, (id+1+i%(n-1))%n, kinds[i%3], i%200)
							if i%4 == 0 {
								l.broadcast(f, id, kinds[(i/4)%3], 16)
							}
						}
						// Rejected sends: never counted.
						l.send(f, id, n, "bad-to", 8)
						l.send(f, -1, id, "bad-from", 8)
						l.broadcast(f, n+3, "bad-bcast", 8)
					}(id, ledgers[id])
				}
				wg.Wait()
				for _, l := range ledgers {
					total.merge(l)
				}
			}

			traffic()
			total.check(t, "open channels", f.Stats())

			// Held channels queue instead of bypassing; the count is taken at
			// the send either way, before the release delivers anything.
			for _, ch := range [][2]int{{0, 1}, {2, 3}, {3, 0}} {
				if err := f.Hold(ch[0], ch[1]); err != nil {
					t.Fatal(err)
				}
			}
			traffic()
			total.check(t, "with held channels", f.Stats())
			for _, ch := range [][2]int{{0, 1}, {2, 3}, {3, 0}} {
				if err := f.Release(ch[0], ch[1]); err != nil {
					t.Fatal(err)
				}
			}

			f.Close()
			recvWG.Wait()
			traffic()
			close(stop)
			<-snapDone
			total.check(t, "after Close", f.Stats())
		})
	}
}
