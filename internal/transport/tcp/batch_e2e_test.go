package tcp_test

import (
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/transport/tcp"
)

// gatedListener is a listener that can be made to sit on the connections it
// accepts. The kernel still completes the handshake and buffers what the
// dialer writes, so while the gate is shut a sender's frames are on the wire
// but the receiver, not having been handed the connection, cannot ack one of
// them.
type gatedListener struct {
	net.Listener
	mu     sync.Mutex
	gate   chan struct{} // closed = open
	closed chan struct{}
	once   sync.Once
}

func newGatedListener(ln net.Listener) *gatedListener {
	g := &gatedListener{Listener: ln, gate: make(chan struct{}), closed: make(chan struct{})}
	close(g.gate)
	return g
}

func (g *gatedListener) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedListener) open() {
	g.mu.Lock()
	close(g.gate)
	g.mu.Unlock()
}

func (g *gatedListener) Accept() (net.Conn, error) {
	conn, err := g.Listener.Accept()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	select {
	case <-gate:
		return conn, nil
	case <-g.closed:
		conn.Close()
		return nil, net.ErrClosed
	}
}

func (g *gatedListener) Close() error {
	g.once.Do(func() { close(g.closed) })
	return g.Listener.Close()
}

// TestBatchedReplayOverTCP proves the outbox's claim end to end: with update
// batching enabled, connections killed mid-stream must stay invisible — the
// sequence/ack layer replays unacked batch frames, the receiver's dedup drops
// the duplicates, and delivery stays exactly-once and FIFO.
//
// The kills are placed, not raced. At fixed rounds the writer waits for the
// channel to drain, shuts the receiver's accept gate and drops the
// connection. The redialed connection is established by the kernel but never
// handed to the receiver, so the rounds written next reach the wire (Pending
// falls to zero) with no possibility of an ack. A second drop strands exactly
// those frames: they must be replayed on the third connection, and when the
// gate opens the receiver serves the stranded connection's buffered frames
// and the replay side by side — the two-readers-one-sender case the receive
// lock exists for.
//
// Exactly-once is checked semantically: every round bumps a counter with Add
// (commutative increments do not coalesce, so each one rides the wire); a
// lost batch deflates the final sum, a double-applied replay inflates it.
// FIFO/atomicity is checked by awaiting the final round marker causally and
// then reading every data location: the marker is written after the data in
// the writer's program order, so the causal view must already hold the final
// round's values.
func TestBatchedReplayOverTCP(t *testing.T) {
	const (
		rounds       = 50
		writesPerRnd = 8
		outboxWidth  = 8
	)
	var gate *gatedListener
	trs, err := tcp.NewLoopback(2, func(c *tcp.Config) {
		if c.ID == 1 {
			gate = newGatedListener(c.Listener)
			c.Listener = gate
		}
	})
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	peers := make([]*core.Peer, 2)
	for i := range peers {
		p, err := core.NewPeer(core.PeerConfig{
			ID: i, Transport: trs[i],
			Batch: dsm.BatchConfig{Enabled: true, MaxUpdates: outboxWidth},
		})
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		peers[i] = p
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Flush(5 * time.Second)
		}
		for _, p := range peers {
			p.Close()
		}
	})
	writer, reader := peers[0].Proc(), peers[1].Proc()

	writeRound := func(r int) {
		for i := 0; i < writesPerRnd; i++ {
			writer.Write("d"+strconv.Itoa(i), int64(r*100+i))
			writer.Add("sum", 1)
		}
		writer.Write("round", int64(r))
	}
	onTheWire := func() {
		writer.FlushUpdates()
		for trs[0].Pending(0, 1) > 0 {
			runtime.Gosched()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 1; r <= rounds; r++ {
			writeRound(r)
			if r%15 != 0 {
				continue
			}
			// Drained means the current connection is installed and idle, so
			// the drop below closes it and a redial must follow.
			writer.FlushUpdates()
			if !trs[0].Flush(10 * time.Second) {
				t.Errorf("round %d: channel did not drain", r)
				return
			}
			gate.shut()
			dials := trs[0].Diag().Dials
			trs[0].DropConn(1)
			for trs[0].Diag().Dials == dials {
				runtime.Gosched()
			}
			for k := 0; k < 3; k++ {
				r++
				writeRound(r)
			}
			onTheWire() // on a connection nobody has accepted
			trs[0].DropConn(1)
			gate.open()
		}
		writer.FlushUpdates()
	}()

	reader.Await("round", rounds)
	<-done

	if got := reader.ReadCausal("sum"); got != rounds*writesPerRnd {
		t.Fatalf("sum = %d, want %d — batched adds lost or double-applied across reconnects",
			got, rounds*writesPerRnd)
	}
	for i := 0; i < writesPerRnd; i++ {
		if got := reader.ReadCausal("d" + strconv.Itoa(i)); got != int64(rounds*100+i) {
			t.Fatalf("d%d = %d, want %d — final round not fully applied", i, got, rounds*100+i)
		}
	}
	// The stream really used batch frames, and every placed kill stranded
	// frames that had to be replayed.
	if n := trs[0].Stats().PerKind[dsm.KindUpdateBatch]; n == 0 {
		t.Fatal("writer sent no update-batch frames; outbox was not exercised")
	}
	if d := trs[0].Diag(); d.Replayed < 3 {
		t.Fatalf("diag %+v: the three placed kills stranded frames, yet fewer than three were replayed", d)
	}
}

// TestReplayedDefinitionsResolve: a location is named on the wire only by its
// sender's first update of it, and a kill whose replay straddles the ack
// cursor must not cost the receiver a name. Ten locations are defined and
// acknowledged; ten more are defined, and the first ten written again, on a
// connection nobody accepts, and dropped with it, so the replay carries
// definitions and references while the acked definitions are not resent. The
// receiver keeps its reference tables in its dsm node, not in a connection,
// so every later reference resolves: each location holds its last value and
// no update counts as malformed.
func TestReplayedDefinitionsResolve(t *testing.T) {
	const locs = 20
	var gate *gatedListener
	trs, err := tcp.NewLoopback(2, func(c *tcp.Config) {
		if c.ID == 1 {
			gate = newGatedListener(c.Listener)
			c.Listener = gate
		}
	})
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	peers := make([]*core.Peer, 2)
	for i := range peers {
		if peers[i], err = core.NewPeer(core.PeerConfig{ID: i, Transport: trs[i]}); err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Flush(5 * time.Second)
		}
		for _, p := range peers {
			p.Close()
		}
	})
	writer, reader := peers[0].Proc(), peers[1].Proc()
	loc := func(i int) string { return "named/" + strconv.Itoa(i) }
	write := func(from, to int, round int64) {
		for i := from; i < to; i++ {
			writer.Write(loc(i), round*100+int64(i))
		}
	}

	write(0, locs/2, 1)
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("the first definitions were not acknowledged")
	}
	gate.shut()
	dials := trs[0].Diag().Dials
	trs[0].DropConn(1)
	for trs[0].Diag().Dials == dials {
		runtime.Gosched()
	}
	write(locs/2, locs, 1)
	write(0, locs/2, 2)
	for trs[0].Pending(0, 1) > 0 {
		runtime.Gosched()
	}
	trs[0].DropConn(1) // strands them: they must be replayed
	gate.open()
	write(0, locs, 3)
	writer.Write("named/done", 1)

	reader.Await("named/done", 1)
	for i := 0; i < locs; i++ {
		if got, want := reader.ReadCausal(loc(i)), 300+int64(i); got != want {
			t.Errorf("%s = %d, want %d", loc(i), got, want)
		}
	}
	if s := reader.MemStats(); s.MalformedUpdates != 0 {
		t.Errorf("%d updates malformed: a replayed reference did not resolve", s.MalformedUpdates)
	}
	if d := trs[0].Diag(); d.Replayed < locs {
		t.Fatalf("diag %+v: the stranded definitions and references were not replayed", d)
	}
}
