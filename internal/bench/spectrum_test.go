package bench

import (
	"testing"

	"mixedmem/internal/history"
)

// TestSpectrumMonotoneCostCurve pins experiment E8S's acceptance shape: the
// cost of consistency is monotone in label strength. Message counts are
// deterministic, so they are asserted exactly: flat across the weak labels,
// a jump at SC. Byte counts pin slow's timestamp elision. Latency is noisy,
// so only the structural separation — the SC round trip dominating every
// local weak operation — is asserted.
func TestSpectrumMonotoneCostCurve(t *testing.T) {
	r, err := RunLatencySpectrum(3, 400, Substrate{})
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
	for _, weak := range []SpectrumPoint{slow, pram, causal} {
		if weak.Write > sc.Write {
			t.Errorf("%v write %v exceeds the SC round trip %v", weak.Label, weak.Write, sc.Write)
		}
		if weak.Read > sc.Read {
			t.Errorf("%v read %v exceeds the SC round trip %v", weak.Label, weak.Read, sc.Read)
		}
	}
}

// TestSpectrumTCPSmoke reruns the curve over loopback TCP: verdict-level
// agreement with the sim — flat weak message counts, the SC jump, and the
// kernel round trip dominating local weak accesses.
func TestSpectrumTCPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP spectrum in -short mode")
	}
	r, err := RunLatencySpectrum(2, 60, Substrate{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MsgsPerOp < r.Points[i-1].MsgsPerOp {
			t.Errorf("tcp msgs/op not monotone: %v=%.2f < %v=%.2f",
				r.Points[i].Label, r.Points[i].MsgsPerOp,
				r.Points[i-1].Label, r.Points[i-1].MsgsPerOp)
		}
	}
	sc := r.Points[3]
	for _, weak := range r.Points[:3] {
		if weak.Write > sc.Write {
			t.Errorf("tcp %v write %v exceeds the SC socket round trip %v", weak.Label, weak.Write, sc.Write)
		}
	}
}
