package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// Experiment PERF: the raw-speed trajectory. Every other experiment charges
// protocol costs through a latency model or a real network; this one measures
// the implementation itself — nanoseconds and heap allocations per operation
// on the write→outbox→codec→transport hot path, and aggregate throughput when
// many goroutines hit one replica on distinct locations. The grid is fixed
// (labels × batch configuration × scenario × substrate) so two runs are
// comparable row by row: mixedbench -exp perf emits the cells as JSON and
// cmd/benchdiff compares them against the previous run's committed baseline,
// failing CI on regressions. The paper's economics only mean something if
// each consistency label's implementation is near the hardware floor; this
// harness is what keeps it there.

// PerfCell is one grid point of the perf experiment.
type PerfCell struct {
	// Transport is the substrate: "sim" or "tcp" (loopback sockets).
	Transport string `json:"transport"`
	// Scenario is "write" (one writer, drain-to-peers throughput),
	// "contended" (many writer + reader goroutines on distinct locations of
	// one replica while a remote peer streams updates into it), or
	// "contended1" (the same goroutine mix all hammering one single
	// location — remote streamer included — so every operation contends on
	// one cell; the row the sharded apply path's lock-free reads answer to),
	// "fresh" (one writer, every write to a location no replica has seen, so
	// each op pays a table insert at every replica), or "backlog" (one writer
	// streaming deliverable updates into a replica that holds perfBacklog
	// delivery groups parked behind a held sender: the cost of an apply when
	// the causal view has a backlog), or "stream" (no replicas: node 0 of a
	// two-node transport streams update messages to node 1, which only
	// receives — the channel's own cost per message; on tcp the cell ends when
	// Flush returns, acks included, on sim when the receiver has taken the
	// last one), or "burst" (sim only, no replicas: a fresh two-node fabric
	// per repetition, whose node 0 sends perfBurstMsgs update messages before
	// node 1 receives any, then node 1 drains them — what a backlog costs the
	// inbox, with heap bytes per message), or "echo" (tcp only, no replicas:
	// node 0 sends one update message and waits for node 1's reply before the
	// next, no Flush — what a lone message costs per hop, acknowledgements
	// included if any are sent), or "lock" / "barrier" (a
	// perfSyncProcs-process core.System rather than bare replicas: one
	// synchronisation round per op — an uncontended WLock+WUnlock of one name
	// from a non-manager process, or a global barrier all processes reach in
	// lockstep), or "replay" (no memory and no
	// substrate, listed under sim: the trace replays one process of the
	// session front-end makes per run beside its own workers — a flag plan per
	// strand its probers watch and the counter verification's ExpectedHits —
	// at the bench/e2e session configuration; one op is one replayed request),
	// or "sweep" (no memory and no substrate either, listed under sim: the
	// Jacobi solvers' arithmetic on the bench/e2e Jacobi problem, one op is one
	// sequential iteration — every row update and one failing convergence test).
	Scenario string `json:"scenario"`
	// Label is the consistency configuration: "pram" (PRAMOnly), "causal"
	// (full broadcast with timestamps), "scoped" (causal-scoped
	// point-to-point placement), or "hybrid" (the same placement with every
	// other location's copies elided, so the writes alternate obMatrix and
	// obNone through one destination's outbox batch). The stream, burst and echo scenarios, which
	// have no memory above the transport, name their message kind here:
	// "update"; the lock scenario names its propagation mode ("lazy"), the
	// barrier scenario its participants ("global"), the replay scenario its
	// workload ("session") and the sweep scenario its solver ("jacobi").
	Label string `json:"label"`
	// Batch is the outbox MaxUpdates threshold; 0 means the outbox is off.
	Batch int `json:"batch"`
	// Writers and Readers are the goroutine counts of the scenario.
	Writers int `json:"writers"`
	Readers int `json:"readers"`
	// Ops is the total number of measured operations (writes + reads).
	Ops int `json:"ops"`
	// NsPerOp, AllocsPerOp, and OpsPerSec are the measurements. Allocations
	// are process-wide mallocs per operation: they include the receive path
	// of every in-process replica, which is exactly the end-to-end path the
	// alloc-free work pins.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	// BytesPerOp is heap bytes allocated per operation, which every cell
	// reports, AcksPerOp the ack frames the receivers wrote per message
	// (tcp.Diag.AcksSent), which the tcp stream and echo cells report, and
	// MsgsPerOp the messages the transport sent per operation
	// (Stats.MessagesSent), which the lock and barrier cells report.
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AcksPerOp  float64 `json:"acks_per_op,omitempty"`
	MsgsPerOp  float64 `json:"msgs_per_op,omitempty"`
}

// Key identifies the cell's grid point independent of measurements; benchdiff
// matches baseline and current rows on it.
func (c PerfCell) Key() string {
	return fmt.Sprintf("%s/%s/%s/b%d/w%d/r%d",
		c.Transport, c.Scenario, c.Label, c.Batch, c.Writers, c.Readers)
}

func (c PerfCell) String() string {
	s := fmt.Sprintf("%-28s ops=%-7d %9.0f ns/op %7.2f allocs/op %12.0f ops/s",
		c.Key(), c.Ops, c.NsPerOp, c.AllocsPerOp, c.OpsPerSec)
	switch {
	case (c.Scenario == "stream" || c.Scenario == "echo") && c.Transport == "tcp":
		s += fmt.Sprintf(" %6.1f B/op %6.3f acks/op", c.BytesPerOp, c.AcksPerOp)
	case c.Scenario == "burst":
		s += fmt.Sprintf(" %6.1f B/op", c.BytesPerOp)
	case c.Scenario == "lock" || c.Scenario == "barrier":
		s += fmt.Sprintf(" %6.1f B/op %6.2f msgs/op", c.BytesPerOp, c.MsgsPerOp)
	}
	return s
}

// PerfResult is the full grid on one substrate.
type PerfResult struct {
	Transport string     `json:"transport"`
	Procs     int        `json:"procs"`
	Cells     []PerfCell `json:"cells"`
}

func (r PerfResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf (%s): procs=%d\n", r.Transport, r.Procs)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return strings.TrimRight(b.String(), "\n")
}

// PerfOptions configures the perf grid.
type PerfOptions struct {
	// Procs is the replica count (default 4).
	Procs int
	// Ops is the measured write count per cell (default 20000 sim, a quarter
	// of that on tcp where the kernel round trips dominate).
	Ops int
	// Warmup is the unmeasured write count per cell (default Ops/10),
	// letting pools, maps, and outbox rings reach steady state before the
	// allocation window opens.
	Warmup int
}

func (o PerfOptions) withDefaults() PerfOptions {
	if o.Procs == 0 {
		o.Procs = 4
	}
	if o.Ops == 0 {
		o.Ops = 20000
	}
	if o.Warmup == 0 {
		o.Warmup = o.Ops / 10
	}
	return o
}

// perfGrid is the fixed cell grid per substrate. Keeping it a function of
// nothing (not flags, not hardware) is what makes BENCH_PERF.json files
// comparable across runs.
func perfGrid() []PerfCell {
	return []PerfCell{
		{Scenario: "write", Label: "pram", Batch: 0, Writers: 1},
		{Scenario: "write", Label: "pram", Batch: 64, Writers: 1},
		{Scenario: "write", Label: "causal", Batch: 0, Writers: 1},
		{Scenario: "write", Label: "causal", Batch: 64, Writers: 1},
		{Scenario: "write", Label: "scoped", Batch: 64, Writers: 1},
		{Scenario: "write", Label: "hybrid", Batch: 32, Writers: 1},
		{Scenario: "contended", Label: "pram", Batch: 0, Writers: 4, Readers: 4},
		{Scenario: "contended", Label: "causal", Batch: 64, Writers: 4, Readers: 4},
		{Scenario: "contended1", Label: "pram", Batch: 0, Writers: 4, Readers: 4},
		{Scenario: "contended1", Label: "causal", Batch: 64, Writers: 4, Readers: 4},
		{Scenario: "fresh", Label: "pram", Batch: 0, Writers: 1},
		{Scenario: "fresh", Label: "causal", Batch: 0, Writers: 1},
		{Scenario: "backlog", Label: "causal", Batch: 0, Writers: 1},
		{Scenario: "stream", Label: "update", Batch: 0, Writers: 1},
		{Scenario: "echo", Label: "update", Batch: 0, Writers: 1},
		{Scenario: "lock", Label: "lazy", Batch: 0, Writers: 1},
		{Scenario: "barrier", Label: "global", Batch: 0, Writers: perfSyncProcs},
		{Scenario: "replay", Label: "session", Batch: 0, Writers: 1},
		{Scenario: "sweep", Label: "jacobi", Batch: 0, Writers: 1},
		{Scenario: "burst", Label: "update", Batch: 0, Writers: 1},
	}
}

// perfSyncProcs is the process count of the lock and barrier scenarios: a
// manager and two others, whatever PerfOptions.Procs says, so the cells read
// the same on every grid.
const perfSyncProcs = 3

// perfBacklog is the number of delivery groups the backlog scenario parks at
// the measured replica, and perfBacklogProcs the replica count its four roles
// need (receiver, held sender, parked sender, live sender).
const (
	perfBacklog      = 1024
	perfBacklogProcs = 4
)

// perfLocs are the writer locations: a small working set, round-robined, so
// coalescing and shard spread both behave as in real workloads.
const perfLocCount = 8

func perfLoc(writer, i int) string {
	return fmt.Sprintf("w%d_%d", writer, i%perfLocCount)
}

// perfLocs is one writer's whole location set, precomputed so the harness
// never charges its own fmt.Sprintf to the measured path.
func perfLocs(writer int) []string {
	locs := make([]string, perfLocCount)
	for i := range locs {
		locs[i] = perfLoc(writer, i)
	}
	return locs
}

// remoteLoc is the location set the remote streamer writes in the contended
// scenario.
func remoteLoc(i int) string {
	return fmt.Sprintf("x%d", i%perfLocCount)
}

// perfScope builds the scoped-label placement: every writer location of node
// 0 is registered to the single causal reader 1, the point-to-point
// placement whose metadata (dependency matrices) exercises
// the scoped-causal fast path. With hybrid, reader 1 reads every odd-numbered
// location with PRAM reads only, so those copies are elided.
func perfScope(writers int, hybrid bool) *dsm.ScopeMap {
	s := &dsm.ScopeMap{
		Readers:       map[string][]int{},
		CausalReaders: map[string][]int{},
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perfLocCount; i++ {
			loc := perfLoc(w, i)
			s.Readers[loc] = []int{1}
			if !hybrid || i%2 == 0 {
				s.CausalReaders[loc] = []int{1}
			}
		}
	}
	return s
}

// RunPerf runs the grid on one substrate. On the simulated fabric the latency
// model is always zero: the fabric then measures pure implementation cost
// (queues, locks, clocks, outbox), which is the quantity the optimization
// passes move. Over tcp it runs the socket-path subset — the cells that
// exercise the frame writer, the pooled codec buffers and the read loop — at
// a quarter of the default op count, since kernel round trips dominate there.
func RunPerf(sub Substrate, opt PerfOptions) (PerfResult, error) {
	o := opt.withDefaults()
	if sub.TCP && opt.Ops == 0 {
		o.Ops = o.Ops / 4
		o.Warmup = o.Ops / 10
	}
	sub.Latency = network.LatencyModel{}
	out := PerfResult{Transport: sub.String(), Procs: o.Procs}
	for _, cell := range perfGrid() {
		if !cell.runsOn(sub, o.Procs) {
			continue
		}
		cell.Transport = out.Transport
		var measured PerfCell
		var err error
		switch cell.Scenario {
		// The stream and echo cells are single-backend on purpose: each
		// measures one backend's own mechanism (the tcp channel's frames and
		// acks, the fabric's pair queues and inbox) and has no twin.
		case "stream":
			if sub.TCP {
				measured, err = measureTCPStream(o.Ops*perfStreamFactor, o.Warmup*perfStreamFactor, 0)
			} else {
				measured, err = measureSimStream(o.Ops*perfStreamFactor, o.Warmup*perfStreamFactor)
			}
		case "burst":
			measured, err = measureSimBurst(cell)
		case "echo":
			measured, err = measureTCPEcho(o.Ops, o.Warmup)
		case "lock", "barrier":
			measured, err = measureSyncCell(sub, o, cell)
		case "replay":
			measured, err = measureSessionReplay(cell)
		case "sweep":
			measured, err = measureJacobiSweep(cell)
		default:
			measured, err = runPerfCell(sub, o, cell)
		}
		if err != nil {
			return out, fmt.Errorf("perf %s: %w", cell.Key(), err)
		}
		out.Cells = append(out.Cells, measured)
	}
	return out, nil
}

// runsOn says whether the cell is part of the substrate's grid. The write
// cells run on both — on tcp the scoped and hybrid ones also cross the batch
// codec's dependency matrices and the tcp recycler — and so do the stream, lock and
// barrier cells; echo measures the tcp ack
// protocol; contended, contended1 and fresh are about lock contention and
// table inserts inside one replica, which sockets only blur; burst measures
// the inbox both substrates share, behind the fabric; replay and sweep use no
// substrate at all, so they run once; backlog needs transport.Faults to park
// its groups, which only the fabric has, and four replicas.
func (c PerfCell) runsOn(sub Substrate, procs int) bool {
	switch c.Scenario {
	case "write", "stream", "lock", "barrier":
		return true
	case "echo":
		return sub.TCP
	case "backlog":
		return !sub.TCP && procs >= perfBacklogProcs
	default:
		return !sub.TCP
	}
}

// perfStreamFactor scales the stream cells' message count over the write
// cells' op count: a streamed message costs a microsecond or less where an
// unbatched write costs several times that, and the cell should run as long.
const perfStreamFactor = 16

// measureTCPStream measures the tcp channel alone: node 0 sends msgs update
// messages to node 1, which only receives, and the clock stops when Flush
// reports every one acked. window is how many messages go out between
// Flushes; 0 streams them all (the cell), 1 is a ping-pong that waits for
// each ack (what the cell's acks/op is judged against).
func measureTCPStream(msgs, warmup, window int) (PerfCell, error) {
	cell := PerfCell{Transport: "tcp", Scenario: "stream", Label: "update", Writers: 1}
	if window == 0 {
		window = msgs + warmup
	}
	trs, err := tcp.NewLoopback(2, nil)
	if err != nil {
		return cell, err
	}
	received := make(chan int)
	go func() {
		n := 0
		for {
			if _, ok := trs[1].Recv(1); !ok {
				received <- n
				return
			}
			n++
		}
	}()

	locs := perfLocs(0)
	sent := 0
	pass := func(n int) error {
		for i := 0; i < n; i++ {
			sent++
			u := &dsm.Update{From: 0, Seq: uint64(sent), Op: dsm.OpSet, Loc: locs[sent%perfLocCount], Value: int64(sent)}
			if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Payload: u, Size: 32}); err != nil {
				return err
			}
			if (i+1)%window == 0 || i == n-1 {
				if !trs[0].Flush(30 * time.Second) {
					return fmt.Errorf("stream: %d of %d messages sent, not acked within 30s", i+1, n)
				}
			}
		}
		return nil
	}
	err = pass(warmup)
	if err == nil {
		acked := trs[1].Diag().AcksSent
		cell, err = measure(cell, func() (int, error) { return msgs, pass(msgs) })
		cell.AcksPerOp = float64(trs[1].Diag().AcksSent-acked) / float64(msgs)
	}
	for _, tr := range trs {
		tr.Close()
	}
	if got := <-received; err == nil && got != sent {
		err = fmt.Errorf("stream: receiver got %d of %d messages", got, sent)
	}
	return cell, err
}

// measureTCPEcho measures a lone message's cost over tcp: node 0 sends one
// update message to node 1 and waits for node 1's reply — the same message
// sent back — before it sends the next. Nothing calls Flush, so the only acks
// are the ones the receivers send of their own accord. One op is one round
// trip, two hops; acks/op counts both receivers' acks.
func measureTCPEcho(rounds, warmup int) (PerfCell, error) {
	cell := PerfCell{Transport: "tcp", Scenario: "echo", Label: "update", Writers: 1}
	trs, err := tcp.NewLoopback(2, nil)
	if err != nil {
		return cell, err
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	echoErr := make(chan error, 1)
	go func() {
		for {
			m, ok := trs[1].Recv(1)
			if !ok {
				echoErr <- nil
				return
			}
			m.From, m.To = 1, 0
			if err := trs[1].Send(m); err != nil {
				echoErr <- err
				return
			}
		}
	}()

	locs := perfLocs(0)
	sent := 0
	pass := func(n int) error {
		for i := 0; i < n; i++ {
			sent++
			u := &dsm.Update{From: 0, Seq: uint64(sent), Op: dsm.OpSet, Loc: locs[sent%perfLocCount], Value: int64(sent)}
			if err := trs[0].Send(transport.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Payload: u, Size: 32}); err != nil {
				return err
			}
			m, ok := trs[0].Recv(0)
			if !ok {
				return fmt.Errorf("echo: transport closed in round %d: %v", sent, <-echoErr)
			}
			if got, ok := m.Payload.(*dsm.Update); !ok || got.Seq != uint64(sent) {
				return fmt.Errorf("echo: round %d answered with %+v", sent, m.Payload)
			}
		}
		return nil
	}
	acksSent := func() uint64 { return trs[0].Diag().AcksSent + trs[1].Diag().AcksSent }
	if err := pass(warmup); err != nil {
		return cell, err
	}
	acked := acksSent()
	cell, err = measure(cell, func() (int, error) { return rounds, pass(rounds) })
	cell.AcksPerOp = float64(acksSent()-acked) / float64(rounds)
	return cell, err
}

// measureSimStream is the stream cell on the simulated fabric: node 0 sends
// msgs update messages to node 1, which only receives, and the clock stops
// when the receiver has taken the last one. The sender does not wait for the
// receiver in between, so the inbox sees bursts. The fabric passes payloads by
// reference and nothing here reads them, so the messages share a handful of
// preallocated updates and the allocations counted are the fabric's own.
func measureSimStream(msgs, warmup int) (PerfCell, error) {
	cell := PerfCell{Transport: "sim", Scenario: "stream", Label: "update", Writers: 1}
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		return cell, err
	}
	defer f.Close()
	drained := make(chan struct{})
	go func() {
		for n := 1; ; n++ {
			if _, ok := f.Recv(1); !ok {
				return
			}
			if n == warmup || n == warmup+msgs {
				drained <- struct{}{}
			}
		}
	}()

	updates := perfUpdates()
	sent := 0
	pass := func(n int) error {
		if n == 0 {
			return nil
		}
		for i := 0; i < n; i++ {
			sent++
			m := network.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Payload: &updates[sent%perfLocCount], Size: 32}
			if err := f.Send(m); err != nil {
				return err
			}
		}
		<-drained
		return nil
	}
	if err := pass(warmup); err != nil {
		return cell, err
	}
	return measure(cell, func() (int, error) { return msgs, pass(msgs) })
}

// perfBurstMsgs is the burst cell's backlog, and perfBurstReps how many fresh
// fabrics its measurement builds, one backlog each.
const (
	perfBurstMsgs = 32768
	perfBurstReps = 8
)

// measureSimBurst is the burst cell: each repetition builds a fresh two-node
// fabric, queues perfBurstMsgs update messages from node 0 — all delivered
// into node 1's inbox, since nobody receives yet and the latency model is
// zero — and then receives them all on node 1, which checks their order. One
// op is one message. The messages share a handful of preallocated updates,
// as in the stream cell, so the bytes counted are the fabric's own.
func measureSimBurst(cell PerfCell) (PerfCell, error) {
	updates := perfUpdates()
	pass := func() error {
		f, err := network.New(network.Config{Nodes: 2})
		if err != nil {
			return err
		}
		defer f.Close()
		for i := 0; i < perfBurstMsgs; i++ {
			m := network.Message{From: 0, To: 1, Kind: dsm.KindUpdate, Payload: &updates[i%perfLocCount], Size: 32}
			if err := f.Send(m); err != nil {
				return err
			}
		}
		for i := 0; i < perfBurstMsgs; i++ {
			m, ok := f.Recv(1)
			if !ok {
				return fmt.Errorf("burst: fabric closed after %d of %d messages", i, perfBurstMsgs)
			}
			if m.Payload != &updates[i%perfLocCount] {
				return fmt.Errorf("burst: message %d arrived out of order", i)
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		return cell, err
	}
	return measure(cell, repeat(perfBurstReps, perfBurstMsgs, pass))
}

// measureSyncCell measures the syncmgr boundary: one synchronisation round per
// op on a system of perfSyncProcs processes over the substrate, with the
// managers on process 0 and lazy propagation (the defaults). The lock
// scenario cycles one lock from process 1 with nobody else asking — request,
// grant, release, and the count vectors that ride on them; the barrier
// scenario walks every process through the same rounds. No process writes, so
// the round's own cost is all there is, messages included: the cell reports
// the transport's sends per round.
func measureSyncCell(sub Substrate, o PerfOptions, cell PerfCell) (PerfCell, error) {
	sys, err := sub.NewSystem(core.Config{Procs: perfSyncProcs})
	if err != nil {
		return cell, err
	}
	defer sys.Close()
	pass := func(rounds int) {
		if cell.Scenario == "lock" {
			p := sys.Proc(1)
			for i := 0; i < rounds; i++ {
				p.WLock("l")
				p.WUnlock("l")
			}
			return
		}
		sys.Run(func(p *core.Proc) {
			for i := 0; i < rounds; i++ {
				p.Barrier()
			}
		})
	}
	pass(o.Warmup)
	sent := sys.NetStats().MessagesSent
	cell, err = measure(cell, func() (int, error) { pass(o.Ops); return o.Ops, nil })
	cell.MsgsPerOp = float64(sys.NetStats().MessagesSent-sent) / float64(o.Ops)
	return cell, err
}

// perfReplayConfig is the bench/e2e session workloads' saturated epoch: three
// processes of one worker strand, 33 000 requests per strand.
var perfReplayConfig = apps.SessionConfig{
	Procs: 3, Workers: 1, Sessions: 16, SessionKeys: 16,
	AggEvery: 8, AggReadEvery: 16, VisEvery: 16,
	Seed: 1, Mode: apps.SessionHybrid, Ops: 30000, Warmup: 3000,
}

// perfReplayPasses is how many times the replay cell repeats one process's
// replays inside its measurement (about a millisecond each).
const perfReplayPasses = 16

// measureSessionReplay measures the replay cell: process 0's probers' flag
// plans — one per strand of every other process — and its ExpectedHits, the
// whole fleet's trace once more. The cell checks what it replayed: every
// strand raises flags, and the hit counts add up to one bump per AggEvery
// requests of every strand.
func measureSessionReplay(cell PerfCell) (PerfCell, error) {
	c := perfReplayConfig.WithDefaults()
	perStrand := c.Warmup + c.Ops
	wantHits := int64(c.Procs * c.Workers * ((perStrand + c.AggEvery - 1) / c.AggEvery))
	pass := func() error {
		for p := 1; p < c.Procs; p++ {
			for w := 0; w < c.Workers; w++ {
				if len(c.FlagPlan(p, w)) == 0 {
					return fmt.Errorf("replay: strand (%d,%d) plans no flags", p, w)
				}
			}
		}
		total := int64(0)
		for _, h := range c.ExpectedHits() {
			total += h
		}
		if total != wantHits {
			return fmt.Errorf("replay: %d counter bumps, want %d", total, wantHits)
		}
		return nil
	}
	if err := pass(); err != nil {
		return cell, err
	}
	// (Procs-1)*Workers flag plans and Procs*Workers strands of ExpectedHits.
	return measure(cell, repeat(perfReplayPasses, (2*c.Procs-1)*c.Workers*perStrand, pass))
}

// The sweep cell's problem is bench/e2e's Jacobi epoch: perfSweepN unknowns,
// perfSweepIters iterations from a zero estimate. The measurement repeats the
// solve perfSweepPasses times.
const (
	perfSweepN      = 128
	perfSweepIters  = 2000
	perfSweepPasses = 4
)

// measureJacobiSweep measures the sweep cell: GenDiagDominant(perfSweepN, 1)
// solved by SolveJacobiSequential with a tolerance no estimate meets, so each
// iteration is perfSweepN row updates and a convergence test that fails — the
// arithmetic a bench/e2e Jacobi iteration does between its memory operations.
// The cell checks that every solve ran all perfSweepIters iterations.
func measureJacobiSweep(cell PerfCell) (PerfCell, error) {
	ls := apps.GenDiagDominant(perfSweepN, 1)
	pass := func() error {
		if _, iters := ls.SolveJacobiSequential(1e-300, perfSweepIters); iters != perfSweepIters {
			return fmt.Errorf("sweep: the solve stopped after %d iterations, want %d", iters, perfSweepIters)
		}
		return nil
	}
	if err := pass(); err != nil {
		return cell, err
	}
	return measure(cell, repeat(perfSweepPasses, perfSweepIters, pass))
}

// buildPerfNode constructs one replica for a cell.
func buildPerfNode(id int, o PerfOptions, cell PerfCell, tr transport.Transport) (*dsm.Node, error) {
	cfg := dsm.Config{ID: id, N: o.Procs, Transport: tr}
	switch cell.Label {
	case "pram":
		cfg.PRAMOnly = true
	case "causal":
	case "scoped", "hybrid":
		cfg.Scope = perfScope(cell.Writers, cell.Label == "hybrid")
	default:
		return nil, fmt.Errorf("unknown label %q", cell.Label)
	}
	if cell.Batch > 0 {
		cfg.Batch = dsm.BatchConfig{Enabled: true, MaxUpdates: cell.Batch}
	}
	return dsm.NewNode(cfg)
}

// runPerfCell measures one replica-backed cell: o.Procs replicas over one
// transport of the substrate, all in this process so drain waits stay
// observable.
func runPerfCell(sub Substrate, o PerfOptions, cell PerfCell) (PerfCell, error) {
	tr, err := sub.transport(o.Procs, 0)
	if err != nil {
		return cell, err
	}
	nodes := make([]*dsm.Node, 0, o.Procs)
	defer func() {
		tr.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < o.Procs; i++ {
		nd, err := buildPerfNode(i, o, cell, tr)
		if err != nil {
			return cell, err
		}
		nodes = append(nodes, nd)
	}
	if cell.Scenario == "backlog" {
		return measureBacklogCell(o, cell, nodes, tr.(transport.Faults))
	}
	return measurePerfCell(o, cell, nodes)
}

// measurePerfCell runs the scenario: a warmup pass, then a measured pass,
// timing from first write to full drain at every receiving replica.
func measurePerfCell(o PerfOptions, cell PerfCell, nodes []*dsm.Node) (PerfCell, error) {
	writerOps := o.Ops / cell.Writers
	drain := func(sentPerWriterNode map[int]uint64) {
		// Every replica that receives the traffic must have applied it:
		// under broadcast labels that is every peer; under the scoped and
		// hybrid labels only replica 1 is registered.
		min := make([]uint64, len(nodes))
		for from, count := range sentPerWriterNode {
			min[from] = count
		}
		for j, nd := range nodes {
			if (cell.Label == "scoped" || cell.Label == "hybrid") && j != 1 {
				continue
			}
			nd.WaitReceived(min)
		}
	}

	// Precompute every location string: the harness must not charge its own
	// fmt.Sprintf allocations to the measured path. The fresh scenario never
	// reuses a name, so it needs one per write of both passes.
	writerLocs := make([][]string, cell.Writers)
	for w := range writerLocs {
		if cell.Scenario != "fresh" {
			writerLocs[w] = perfLocs(w)
			continue
		}
		writerLocs[w] = make([]string, o.Warmup/cell.Writers+writerOps)
		for i := range writerLocs[w] {
			writerLocs[w][i] = fmt.Sprintf("w%d_fresh%d", w, i)
		}
	}
	remoteLocs := make([]string, perfLocCount)
	for i := range remoteLocs {
		remoteLocs[i] = remoteLoc(i)
	}
	if cell.Scenario == "contended1" {
		// Single-location contention: every goroutine — local writers, local
		// readers, and the remote streamer — hits the same cell.
		for w := range writerLocs {
			for i := range writerLocs[w] {
				writerLocs[w][i] = "hot"
			}
		}
		for i := range remoteLocs {
			remoteLocs[i] = "hot"
		}
	}

	var seq uint64 // monotone values so awaited convergence is unambiguous
	// base is where a pass starts in each writer's location list; only the
	// fresh scenario's list is long enough for it to matter.
	runPass := func(ops, base int) int {
		var wg sync.WaitGroup
		var stop atomic.Bool
		var reads atomic.Int64
		total := 0
		// Readers (contended scenario): hammer the writers' locations until
		// the writers finish.
		for r := 0; r < cell.Readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				locs := writerLocs[r%cell.Writers]
				n := 0
				for !stop.Load() {
					nodes[0].ReadPRAM(locs[n%perfLocCount])
					n++
				}
				reads.Add(int64(n))
			}(r)
		}
		// Remote streamer (contended scenario): replica 1 writes its own
		// location set, feeding replica 0's receive loop concurrently.
		remoteOps := 0
		if strings.HasPrefix(cell.Scenario, "contended") {
			remoteOps = ops
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < remoteOps; i++ {
					nodes[1].Write(remoteLocs[i%perfLocCount], int64(atomic.AddUint64(&seq, 1)))
				}
				nodes[1].FlushUpdates()
			}()
		}
		var wwg sync.WaitGroup
		for w := 0; w < cell.Writers; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				locs := writerLocs[w]
				for i := 0; i < ops; i++ {
					nodes[0].Write(locs[(base+i)%len(locs)], int64(atomic.AddUint64(&seq, 1)))
				}
			}(w)
		}
		wwg.Wait()
		nodes[0].FlushUpdates()
		stop.Store(true)
		wg.Wait()
		sent := map[int]uint64{0: nodes[0].ReceivedCounts(nil)[0]}
		if remoteOps > 0 {
			sent[1] = nodes[1].ReceivedCounts(nil)[1]
		}
		drain(sent)
		total = ops*cell.Writers + remoteOps + int(reads.Load())
		return total
	}

	runPass(o.Warmup/cell.Writers, 0)
	return measure(cell, func() (int, error) { return runPass(writerOps, o.Warmup/cell.Writers), nil })
}

// measure brackets one measured pass — a GC, then the clock and the heap
// counters around pass — and fills in the cell's measurements over the
// operations pass reports having run. Callers warm up before it.
func measure(cell PerfCell, pass func() (ops int, err error)) (PerfCell, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops, err := pass()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return cell, err
	}
	cell.Ops = ops
	cell.NsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
	cell.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	cell.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	cell.OpsPerSec = float64(ops) / elapsed.Seconds()
	return cell, nil
}

// repeat is a measured pass of n runs of pass, each of ops operations.
func repeat(n, ops int, pass func() error) func() (int, error) {
	return func() (int, error) {
		for i := 0; i < n; i++ {
			if err := pass(); err != nil {
				return 0, err
			}
		}
		return n * ops, nil
	}
}

// perfUpdates is one preallocated update per location of writer 0, for the
// cells that send update messages nothing reads.
func perfUpdates() []dsm.Update {
	updates := make([]dsm.Update, perfLocCount)
	for i, loc := range perfLocs(0) {
		updates[i] = dsm.Update{From: 0, Op: dsm.OpSet, Loc: loc}
	}
	return updates
}

// measureBacklogCell measures an apply at a replica whose causal view has a
// backlog. Replica 1 writes once; the write reaches replica 2 but is held
// from replica 0. Replica 2 then writes perfBacklog updates, each of which
// depends on the held write, so replica 0 applies them to its PRAM view and
// parks every one. The measured traffic comes from replica 3, which is cut
// off from both (its updates depend on nothing replica 0 lacks): each of its
// writes applies at replica 0 at once, with the backlog looking on. The cell
// fails unless exactly perfBacklog groups were parked during the measurement
// and all of them drain when the held write is released.
func measureBacklogCell(o PerfOptions, cell PerfCell, nodes []*dsm.Node, f transport.Faults) (PerfCell, error) {
	for _, pair := range [][2]int{{1, 0}, {1, 3}, {2, 3}} {
		if err := f.Hold(pair[0], pair[1]); err != nil {
			return cell, err
		}
	}
	count := func(from int, c uint64) []uint64 {
		min := make([]uint64, len(nodes))
		min[from] = c
		return min
	}
	nodes[1].Write("held", 1)
	nodes[2].WaitReceived(count(1, 1))
	for i := 0; i < perfBacklog; i++ {
		nodes[2].Write(remoteLoc(i), int64(i))
	}
	nodes[0].WaitReceived(count(2, perfBacklog))
	if got := nodes[0].Stats().PendingGroups; got != perfBacklog {
		return cell, fmt.Errorf("backlog: %d groups parked, want %d", got, perfBacklog)
	}

	locs := perfLocs(0)
	sent := uint64(0)
	runPass := func(ops int) {
		for i := 0; i < ops; i++ {
			nodes[3].Write(locs[i%perfLocCount], int64(i))
		}
		sent += uint64(ops)
		for _, j := range []int{0, 1, 2} {
			nodes[j].WaitReceived(count(3, sent))
		}
	}
	runPass(o.Warmup)
	cell, _ = measure(cell, func() (int, error) { runPass(o.Ops); return o.Ops, nil }) // the pass cannot fail

	if s := nodes[0].Stats(); s.PendingGroups != perfBacklog || s.PendingGroupsMax != perfBacklog {
		return cell, fmt.Errorf("backlog: %d groups parked after the measurement (max %d), want %d",
			s.PendingGroups, s.PendingGroupsMax, perfBacklog)
	}
	if err := f.Release(1, 0); err != nil {
		return cell, err
	}
	nodes[0].WaitCausalApplied(count(2, perfBacklog))
	if got := nodes[0].Stats().PendingGroups; got != 0 {
		return cell, fmt.Errorf("backlog: %d groups still parked after release", got)
	}
	return cell, nil
}
