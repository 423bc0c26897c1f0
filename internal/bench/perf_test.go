package bench

import "testing"

// TestPerfGridFreshAndBacklogCells runs the sim perf grid at a tiny op count
// and checks the two receive-path scenarios. The backlog cell validates
// itself — it errors unless exactly perfBacklog groups stay parked through
// the measurement and all of them drain on release — so a clean run is the
// assertion; the fresh cells must show the insert path's allocation shape
// (a few allocations per table doubling, never one per entry or a table copy).
func TestPerfGridFreshAndBacklogCells(t *testing.T) {
	r, err := RunPerf(Substrate{}, PerfOptions{Ops: 512, Warmup: 64})
	if err != nil {
		t.Fatalf("RunPerf: %v", err)
	}
	seen := map[string]PerfCell{}
	for _, c := range r.Cells {
		seen[c.Key()] = c
	}
	// Every grid cell but echo, which is a socket round trip and tcp-only.
	if want := len(perfGrid()) - 1; len(seen) != want {
		t.Fatalf("grid ran %d cells, want %d", len(seen), want)
	}
	for _, key := range []string{"sim/fresh/pram/b0/w1/r0", "sim/fresh/causal/b0/w1/r0"} {
		c, ok := seen[key]
		if !ok || c.Ops != 512 {
			t.Fatalf("cell %s missing or short: %+v", key, c)
		}
		// Four replicas insert per write, each into one of 32 small tables
		// that double two or three times over so short a run: about two
		// allocations per op here, a fraction of one on the full grid. An
		// entry allocated per insert adds four.
		if c.AllocsPerOp > 4 {
			t.Errorf("%s: %.1f allocs/op; a fresh location must take its entry from the table's chunk, not allocate one per replica",
				key, c.AllocsPerOp)
		}
	}
	if c, ok := seen["sim/backlog/causal/b0/w1/r0"]; !ok || c.Ops != 512 {
		t.Fatalf("backlog cell missing or short: %+v", c)
	}
	// The replay cell validates itself too, and its size is the session
	// configuration's, whatever the grid's op count: five strands a pass.
	if c, ok := seen["sim/replay/session/b0/w1/r0"]; !ok || c.Ops != perfReplayPasses*5*33000 || c.NsPerOp <= 0 {
		t.Fatalf("replay cell missing or mis-sized: %+v", c)
	}

	// So does the sweep cell, one op per iteration of every solve.
	if c, ok := seen["sim/sweep/jacobi/b0/w1/r0"]; !ok || c.Ops != perfSweepPasses*perfSweepIters || c.NsPerOp <= 0 {
		t.Fatalf("sweep cell missing or mis-sized: %+v", c)
	}

	// The backlog scenario needs four replicas; a smaller system skips it.
	small, err := RunPerf(Substrate{}, PerfOptions{Procs: 3, Ops: 64, Warmup: 8})
	if err != nil {
		t.Fatalf("RunPerf(procs=3): %v", err)
	}
	for _, c := range small.Cells {
		if c.Scenario == "backlog" {
			t.Fatalf("backlog cell ran on %d replicas", small.Procs)
		}
	}
}

// TestJacobiSweepCellShape pins what the sweep cell measures: one op per
// iteration of every measured solve, all of them run (the cell itself fails a
// solve that stops early), and no allocation inside an iteration — a solve
// allocates its two vectors, about 0.001 per op; a kernel or convergence test
// that allocated would read 1 or more.
func TestJacobiSweepCellShape(t *testing.T) {
	cell, err := measureJacobiSweep(PerfCell{Transport: "sim", Scenario: "sweep", Label: "jacobi", Writers: 1})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if cell.Key() != "sim/sweep/jacobi/b0/w1/r0" || cell.Ops != perfSweepPasses*perfSweepIters || cell.NsPerOp <= 0 {
		t.Fatalf("sweep cell: %+v", cell)
	}
	if cell.AllocsPerOp >= 0.01 {
		t.Errorf("sweep: %.4f allocs per iteration, want under 0.01", cell.AllocsPerOp)
	}
}

// TestTCPStreamCellAckShape pins the shape the tcp/stream and tcp/echo cells
// exist to show: acknowledgements are sent on demand. Streaming, the receiver
// acks once per ackEvery bytes, so acks/op is far below one; a sender that
// flushes after each message asks for, and gets, exactly one per message; and
// a lone message answered by a lone reply, with nobody flushing, draws no ack
// at all — 300 round trips stay well below the byte threshold.
func TestTCPStreamCellAckShape(t *testing.T) {
	stream, err := measureTCPStream(20000, 2000, 0)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stream.Key() != "tcp/stream/update/b0/w1/r0" || stream.Ops != 20000 {
		t.Fatalf("stream cell: %+v", stream)
	}
	if stream.AcksPerOp <= 0 || stream.AcksPerOp >= 0.25 {
		t.Errorf("streaming: %.3f acks/op, want well under one per message (< 0.25)", stream.AcksPerOp)
	}
	if stream.BytesPerOp <= 0 || stream.AllocsPerOp <= 0 || stream.NsPerOp <= 0 {
		t.Errorf("stream cell left a measurement empty: %+v", stream)
	}
	pingPong, err := measureTCPStream(300, 30, 1)
	if err != nil {
		t.Fatalf("ping-pong: %v", err)
	}
	if pingPong.AcksPerOp != 1 {
		t.Errorf("ping-pong: %.3f acks/op, want exactly 1", pingPong.AcksPerOp)
	}
	echo, err := measureTCPEcho(300, 30)
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if echo.Key() != "tcp/echo/update/b0/w1/r0" || echo.Ops != 300 || echo.NsPerOp <= 0 {
		t.Fatalf("echo cell: %+v", echo)
	}
	if echo.AcksPerOp != 0 {
		t.Errorf("echo: %.3f acks/op over 300 round trips, want none", echo.AcksPerOp)
	}
}

// TestSimUnbatchedWriteAndStreamAllocShape pins the shape the sim/stream cell
// and the unbatched write cells exist to show: a message on the simulated
// fabric, and the write that sends it, allocate nothing per operation. Sent
// updates and their timestamps come from slabs of 64 and the fabric's buffers
// are reused, so what is left is a few hundredths of an allocation per op; a
// payload boxed per message or a clock cloned per write reads 1.0 or more.
func TestSimUnbatchedWriteAndStreamAllocShape(t *testing.T) {
	o := PerfOptions{Ops: 4096, Warmup: 512}.withDefaults()
	for _, label := range []string{"pram", "causal"} {
		cell, err := runPerfCell(Substrate{}, o, PerfCell{Transport: "sim", Scenario: "write", Label: label, Writers: 1})
		if err != nil {
			t.Fatalf("write/%s: %v", label, err)
		}
		if cell.Ops != o.Ops || cell.AllocsPerOp >= 0.1 {
			t.Errorf("%s: ops=%d, %.3f allocs/op, want %d ops under 0.1 allocs/op", cell.Key(), cell.Ops, cell.AllocsPerOp, o.Ops)
		}
	}
	stream, err := measureSimStream(o.Ops*perfStreamFactor, o.Warmup*perfStreamFactor)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stream.Key() != "sim/stream/update/b0/w1/r0" || stream.Ops != o.Ops*perfStreamFactor {
		t.Fatalf("stream cell: %+v", stream)
	}
	if stream.NsPerOp <= 0 || stream.AllocsPerOp >= 0.1 {
		t.Errorf("streaming: %.0f ns/msg, %.3f allocs/msg, want under 0.1 allocs/msg", stream.NsPerOp, stream.AllocsPerOp)
	}
}

// TestSimBurstCellShape pins what the burst cell exists to show: a fresh
// fabric's backlog of perfBurstMsgs messages costs the inbox next to nothing
// in heap, because its chunks come from the pool the last fabric's went to.
// The fabric itself is some tens of kilobytes per repetition, about a byte per
// message (under the race detector, which drops a share of what is put in a
// sync.Pool, about 16); chunks allocated per fabric read 56 bytes per message,
// and an inbox that grows by append about 300.
func TestSimBurstCellShape(t *testing.T) {
	cell, err := measureSimBurst(PerfCell{Transport: "sim", Scenario: "burst", Label: "update", Writers: 1})
	if err != nil {
		t.Fatalf("burst: %v", err)
	}
	if cell.Key() != "sim/burst/update/b0/w1/r0" || cell.Ops != perfBurstReps*perfBurstMsgs || cell.NsPerOp <= 0 {
		t.Fatalf("burst cell: %+v", cell)
	}
	if cell.BytesPerOp >= 28 {
		t.Errorf("burst: %.1f heap bytes per message, want under 28", cell.BytesPerOp)
	}
}

// TestSyncCellsAllocShape pins the shape the lock and barrier cells exist to
// show: a synchronisation round allocates nothing of its own on the simulated
// fabric. Payloads and count vectors come from slabs of 64 and waiter
// channels, manager queues and barrier rounds are reused, so what is left is
// a fraction of an allocation per round; a payload boxed per message reads
// three or more. Over tcp every message is also decoded, into a connection's
// slabs, so a round costs at most twice what it costs on sim (five or eight
// allocations per round when every message was decoded into fresh memory).
// On both substrates a round sends exactly the messages that cross between
// processes: a lock cycle from process 1 its request, grant and release; a
// barrier the two other processes' arrivals and releases, since the manager's
// own process is served in place (six when it messaged itself).
func TestSyncCellsAllocShape(t *testing.T) {
	o := PerfOptions{Ops: 2048, Warmup: 256}.withDefaults()
	sim, simMsgs := map[string]float64{}, map[string]float64{}
	for _, tc := range []struct {
		cell   PerfCell
		key    string
		allocs float64
		msgs   float64
	}{
		{PerfCell{Scenario: "lock", Label: "lazy", Writers: 1}, "sim/lock/lazy/b0/w1/r0", 0.25, 3},
		{PerfCell{Scenario: "barrier", Label: "global", Writers: perfSyncProcs}, "sim/barrier/global/b0/w3/r0", 0.5, 4},
	} {
		tc.cell.Transport = "sim"
		cell, err := measureSyncCell(Substrate{}, o, tc.cell)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		if cell.Key() != tc.key || cell.Ops != o.Ops || cell.NsPerOp <= 0 || cell.BytesPerOp <= 0 {
			t.Fatalf("%s: cell %+v", tc.key, cell)
		}
		if cell.AllocsPerOp >= tc.allocs {
			t.Errorf("%s: %.3f allocs/op, want under %.2f", tc.key, cell.AllocsPerOp, tc.allocs)
		}
		if cell.MsgsPerOp != tc.msgs {
			t.Errorf("%s: %.3f msgs/op, want %.0f", tc.key, cell.MsgsPerOp, tc.msgs)
		}
		sim[tc.cell.Scenario] = cell.AllocsPerOp
		simMsgs[tc.cell.Scenario] = cell.MsgsPerOp
	}
	if testing.Short() {
		return
	}
	tcpGrid, err := RunPerf(Substrate{TCP: true}, PerfOptions{Procs: 3, Ops: 64, Warmup: 8})
	if err != nil {
		t.Fatalf("RunPerf(tcp): %v", err)
	}
	found := 0
	for _, c := range tcpGrid.Cells {
		if k := c.Key(); k == "tcp/lock/lazy/b0/w1/r0" || k == "tcp/barrier/global/b0/w3/r0" {
			found++
			if c.Ops != 64 || c.NsPerOp <= 0 {
				t.Errorf("%s: cell %+v", k, c)
			}
			// Measured again over as many rounds as on sim: a slab's one
			// allocation is a large share of 64.
			c.Transport = "tcp"
			full, err := measureSyncCell(Substrate{TCP: true}, o, c)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			if s := sim[c.Scenario]; full.AllocsPerOp > 2*s {
				t.Errorf("%s: %.3f allocs/op, want at most twice sim's %.3f", k, full.AllocsPerOp, s)
			}
			if m := simMsgs[c.Scenario]; full.MsgsPerOp != m {
				t.Errorf("%s: %.3f msgs/op, want sim's %.0f", k, full.MsgsPerOp, m)
			}
		}
	}
	if found != 2 {
		t.Errorf("tcp grid ran %d of the two synchronisation cells", found)
	}
}
