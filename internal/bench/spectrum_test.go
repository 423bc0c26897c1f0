package bench

import (
	"testing"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
)

// spectrumProcs is the process count both spectrum tests run at, so the tcp
// run's message and byte counts can be compared with the sim run's.
const spectrumProcs = 3

// TestSpectrumMonotoneCostCurve pins experiment E8S's acceptance shape: the
// cost of consistency is monotone in label strength. Message counts are
// deterministic, so they are asserted exactly: flat across the weak labels,
// a jump at SC. Byte counts pin slow's timestamp elision. The per-kind counts
// pin where the jump comes from: a weak access sends no SC request, an SC
// access exactly one request/reply pair. The host's clock pins nothing here;
// TestRunLatencyMicro makes the timing claim on a modeled fabric.
func TestSpectrumMonotoneCostCurve(t *testing.T) {
	r, err := RunLatencySpectrum(spectrumProcs, 400, Substrate{})
	if err != nil {
		t.Fatal(err)
	}
	want := history.LatticeLabels()
	for i, pt := range r.Points {
		if pt.Label != want[i] {
			t.Fatalf("point %d has label %v, want lattice order %v", i, pt.Label, want)
		}
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MsgsPerOp < r.Points[i-1].MsgsPerOp {
			t.Errorf("msgs/op not monotone: %v=%.2f < %v=%.2f",
				r.Points[i].Label, r.Points[i].MsgsPerOp,
				r.Points[i-1].Label, r.Points[i-1].MsgsPerOp)
		}
	}
	slow, pram, causal, sc := r.Points[0], r.Points[1], r.Points[2], r.Points[3]
	if slow.BytesPerOp >= pram.BytesPerOp {
		t.Errorf("slow writes should shed timestamp bytes: slow=%.1f bytes/op, pram=%.1f",
			slow.BytesPerOp, pram.BytesPerOp)
	}
	if pram.BytesPerOp != causal.BytesPerOp {
		t.Errorf("pram and causal share the broadcast write path: %.1f vs %.1f bytes/op",
			pram.BytesPerOp, causal.BytesPerOp)
	}
	if sc.MsgsPerOp <= causal.MsgsPerOp {
		t.Errorf("SC should pay a request/reply pair per access: sc=%.2f msgs/op, causal=%.2f",
			sc.MsgsPerOp, causal.MsgsPerOp)
	}
	checkSCPairs(t, r)
}

// checkSCPairs fails unless the weak points of r sent no SC request or reply
// and the SC point one of each per access, its ops writes and ops reads.
func checkSCPairs(t *testing.T, r SpectrumResult) {
	t.Helper()
	for _, weak := range r.Points[:3] {
		if weak.SCRequests != 0 || weak.SCReplies != 0 {
			t.Errorf("%v: %d SC requests, %d replies; a weak access sends none", weak.Label, weak.SCRequests, weak.SCReplies)
		}
	}
	sc, accesses := r.Points[3], uint64(2*r.Ops)
	if sc.SCRequests != accesses || sc.SCReplies != accesses {
		t.Errorf("SC: %d requests, %d replies for %d accesses; want one pair per access", sc.SCRequests, sc.SCReplies, accesses)
	}
}

// TestRunLatencyMicro runs E8S on a 300 µs modeled fabric and asserts the
// paper's motivation (Sections 1, 3.2): weak operations are local while SC
// pays a round trip, so the SC write and read cost at least an order of
// magnitude more than every weak write and read.
func TestRunLatencyMicro(t *testing.T) {
	lat := network.LatencyModel{Fixed: 300 * time.Microsecond}
	r, err := RunLatencySpectrum(spectrumProcs, 20, Substrate{Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	sc := r.Points[3]
	for _, weak := range r.Points[:3] {
		if sc.Write < 10*weak.Write {
			t.Errorf("SC write %v is not 10× the %v write %v", sc.Write, weak.Label, weak.Write)
		}
		if sc.Read < 10*weak.Read {
			t.Errorf("SC read %v is not 10× the %v read %v", sc.Read, weak.Label, weak.Read)
		}
	}
}

// TestSpectrumTCPSmoke reruns the curve over loopback TCP at the sim test's
// process count: every label's message and byte counts equal the sim run's,
// and so do the per-kind counts of the SC owner protocol.
func TestSpectrumTCPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP spectrum in -short mode")
	}
	const ops = 60
	simRun, err := RunLatencySpectrum(spectrumProcs, ops, Substrate{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLatencySpectrum(spectrumProcs, ops, Substrate{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range r.Points {
		want := simRun.Points[i]
		if pt.MsgsPerOp != want.MsgsPerOp || pt.BytesPerOp != want.BytesPerOp {
			t.Errorf("%v: tcp msgs/op=%.2f bytes/op=%.1f, sim %.2f/%.1f",
				pt.Label, pt.MsgsPerOp, pt.BytesPerOp, want.MsgsPerOp, want.BytesPerOp)
		}
	}
	checkSCPairs(t, r)
}
