package bench

import (
	"fmt"
	"strings"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
)

// SpectrumPoint is one lattice point of experiment E8S: the measured cost of
// running a contended cell at that consistency label.
type SpectrumPoint struct {
	Label history.Label
	// Write and Read are mean per-operation latencies at this point.
	Write, Read time.Duration
	// MsgsPerOp and BytesPerOp are fabric traffic divided by the total
	// operation count (writes plus reads). Weak labels broadcast each
	// write and read locally; SC pays a request/reply pair per access.
	MsgsPerOp, BytesPerOp float64
	// SCRequests and SCReplies count the SC owner protocol's messages over
	// the measured loops: none at a weak label, one of each per access at SC.
	SCRequests, SCReplies uint64
}

// SpectrumResult is experiment E8S: the cost-of-consistency curve, one point
// per lattice label in lattice order Slow < PRAM < Causal < SC. It is the
// access-latency experiment of the paper's motivation (Sections 1, 3.2): the
// weak points are local operations, the SC point a round trip.
type SpectrumResult struct {
	Procs, Ops int
	Points     [4]SpectrumPoint
}

// String renders the curve one lattice point per line.
func (r SpectrumResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spectrum (procs=%d ops=%d)", r.Procs, r.Ops)
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "\n    %-6s write=%-10v read=%-10v msgs/op=%.2f bytes/op=%.1f",
			pt.Label, pt.Write, pt.Read, pt.MsgsPerOp, pt.BytesPerOp)
	}
	return b.String()
}

// spectrumLoc picks a location whose SC owner is not process 0, so the SC
// point of the curve pays the full round trip rather than the self-owner
// fast path — the cost the lattice top is defined by.
func spectrumLoc(procs int) string {
	for i := 0; ; i++ {
		loc := fmt.Sprintf("cell%d", i)
		if dsm.SCOwner(loc, procs) != 0 {
			return loc
		}
	}
}

// RunLatencySpectrum measures experiment E8S: one system per lattice label,
// all running the same single-writer workload on the same contended cell,
// differing only in the cell's label (which selects the write path) and the
// read label. The curve is the paper's bargain made quantitative: messages
// and latency are flat across the weak labels — slow merely sheds the
// timestamp bytes — and jump at SC, where every access becomes a blocking
// round trip to the owner. Over tcp the weak points stay local (their
// broadcasts cross the kernel asynchronously) and the SC point's round trip
// crosses a real socket pair; the message and byte counts are the same on
// either substrate.
func RunLatencySpectrum(procs, ops int, sub Substrate) (SpectrumResult, error) {
	out := SpectrumResult{Procs: procs, Ops: ops}
	loc := spectrumLoc(procs)
	for i, label := range history.LatticeLabels() {
		sys, err := sub.NewSystem(core.Config{
			Procs:  procs,
			Labels: map[string]history.Label{loc: label},
		})
		if err != nil {
			return out, fmt.Errorf("spectrum %v: %w", label, err)
		}
		// Sends are accounted when issued, so the counters are totals the
		// moment the measured loops return, delivered or not.
		before := sys.NetStats()
		pt := spectrumPoint(sys.Proc(0), label, loc, ops)
		after := sys.NetStats()
		total := float64(2 * ops)
		pt.MsgsPerOp = float64(after.MessagesSent-before.MessagesSent) / total
		pt.BytesPerOp = float64(after.BytesSent-before.BytesSent) / total
		pt.SCRequests = after.PerKind[dsm.KindSCRequest] - before.PerKind[dsm.KindSCRequest]
		pt.SCReplies = after.PerKind[dsm.KindSCReply] - before.PerKind[dsm.KindSCReply]
		out.Points[i] = pt
		sys.Close()
	}
	return out, nil
}

// spectrumPoint runs the measured loops for one lattice point: ops writes
// then ops reads of the cell, both from process 0.
func spectrumPoint(p *core.Proc, label history.Label, loc string, ops int) SpectrumPoint {
	pt := SpectrumPoint{Label: label}
	start := time.Now()
	for i := 0; i < ops; i++ {
		p.Write(loc, int64(i+1))
	}
	pt.Write = time.Since(start) / time.Duration(ops)
	start = time.Now()
	for i := 0; i < ops; i++ {
		p.Read(loc, label)
	}
	pt.Read = time.Since(start) / time.Duration(ops)
	return pt
}
