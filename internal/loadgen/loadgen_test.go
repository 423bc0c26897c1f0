package loadgen

import (
	"math"
	"sort"
	"testing"
	"time"
)

// TestDeterministicTrace is the loadgen determinism guarantee: the same
// config yields the identical request sequence, and fingerprints agree;
// different seeds or worker ids diverge.
func TestDeterministicTrace(t *testing.T) {
	cfg := Config{Keys: 256, ZipfS: 1.1, ReadFraction: 0.7, Seed: 42, Worker: 3}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if Fingerprint(cfg, 5000) != Fingerprint(cfg, 5000) {
		t.Fatal("fingerprints of identical configs differ")
	}
	other := cfg
	other.Worker = 4
	if Fingerprint(cfg, 5000) == Fingerprint(other, 5000) {
		t.Fatal("different workers produced the same fingerprint")
	}
	other = cfg
	other.Seed = 43
	if Fingerprint(cfg, 5000) == Fingerprint(other, 5000) {
		t.Fatal("different seeds produced the same fingerprint")
	}
}

func TestReadWriteMixAndKeyRange(t *testing.T) {
	cfg := Config{Keys: 64, ZipfS: 0.99, ReadFraction: 0.9, Seed: 7}
	g := New(cfg)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		req := g.Next()
		if req.Key < 0 || req.Key >= cfg.Keys {
			t.Fatalf("key %d out of range [0,%d)", req.Key, cfg.Keys)
		}
		if req.Arrival != 0 {
			t.Fatalf("closed-loop request carries arrival %v", req.Arrival)
		}
		if req.Op == OpRead {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("read fraction %.3f, want ≈0.9", frac)
	}
}

// TestZipfSkew checks the sampler is actually zipfian: with s=1 over a
// small key space, the hottest key's share must be close to its analytic
// probability and far above uniform.
func TestZipfSkew(t *testing.T) {
	const keys, n = 16, 50000
	g := New(Config{Keys: keys, ZipfS: 1, Seed: 5})
	counts := make([]int, keys)
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Analytic: P(0) = 1/H_16 ≈ 0.296.
	share := float64(counts[0]) / n
	if share < 0.27 || share > 0.32 {
		t.Fatalf("hottest key share %.3f, want ≈0.296", share)
	}
	if counts[0] <= counts[keys-1] {
		t.Fatal("head key not hotter than tail key")
	}
	// Uniform control.
	g = New(Config{Keys: keys, ZipfS: 0, Seed: 5})
	counts = make([]int, keys)
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	share = float64(counts[0]) / n
	if share < 0.05 || share > 0.08 {
		t.Fatalf("uniform key share %.3f, want ≈0.0625", share)
	}
}

// TestOpenLoopArrivals checks the open-loop schedule: arrivals are
// strictly increasing, deterministic, and the mean interarrival matches
// 1/rate.
func TestOpenLoopArrivals(t *testing.T) {
	cfg := Config{Keys: 8, Seed: 9, Rate: 1000} // 1k req/s -> 1ms mean gap
	a, b := New(cfg), New(cfg)
	var prev time.Duration
	const n = 20000
	var last time.Duration
	for i := 0; i < n; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.Arrival != rb.Arrival {
			t.Fatalf("arrival %d diverged across identical generators", i)
		}
		if ra.Arrival <= prev {
			t.Fatalf("arrival %d not increasing: %v after %v", i, ra.Arrival, prev)
		}
		prev = ra.Arrival
		last = ra.Arrival
	}
	mean := last / n
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("mean interarrival %v, want ≈1ms", mean)
	}
}

// TestZipfSampleMatchesBinarySearch is the guide table's exactness argument,
// checked: Sample returns sort.SearchFloat64s over the same CDF for every u —
// at every CDF value and its two float neighbours (where a scan that starts
// one step late, or stops one step early, would show), at every bucket's
// lower bound and its neighbours (where a bucket that started past its answer
// would), outside [0, 1), and at 10^6 seeded draws per sampler.
func TestZipfSampleMatchesBinarySearch(t *testing.T) {
	draws := 1000000
	if testing.Short() {
		draws = 20000
	}
	for _, n := range []int{1, 2, 3, 7, 256, 4096} {
		for _, s := range []float64{0, 0.5, 0.9, 3} {
			z := NewZipf(n, s)
			if m := len(z.guide); m < 4*n || m&(m-1) != 0 || float64(m) != z.m {
				t.Fatalf("n=%d: %d buckets, want the smallest power of two >= %d", n, m, 4*n)
			}
			check := func(u float64) {
				if got, want := z.Sample(u), sort.SearchFloat64s(z.cdf, u); got != want {
					t.Fatalf("n=%d s=%v: Sample(%v) = %d, binary search says %d", n, s, u, got, want)
				}
			}
			near := func(u float64) {
				check(math.Nextafter(u, math.Inf(-1)))
				check(u)
				check(math.Nextafter(u, math.Inf(1)))
			}
			for _, c := range z.cdf {
				near(c)
			}
			for j := range z.guide {
				near(float64(j) / z.m)
			}
			for _, u := range []float64{math.Copysign(0, -1), -1, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()} {
				check(u)
			}
			r := newRNG(uint64(n)<<32 ^ math.Float64bits(s))
			for i := 0; i < draws; i++ {
				check(r.float64())
			}
		}
	}
}

// TestSkipAndDeferredMatchNext: a replay that mixes Skip, NextDeferred (with
// or without sampling the key) and Next walks the very stream a replay of
// Next alone does — same ops, same keys, same arrivals — in closed and open
// loop, so replays may draw keys only where they use them.
func TestSkipAndDeferredMatchNext(t *testing.T) {
	for _, rate := range []float64{0, 5000} {
		cfg := Config{Keys: 300, ZipfS: 0.9, ReadFraction: 0.6, Seed: 3, Worker: 1, Rate: rate}
		const n = 20000
		ref := New(cfg)
		want := make([]Request, n)
		for i := range want {
			want[i] = ref.Next()
		}
		g := New(cfg)
		pick := newRNG(99)
		for i := 0; i < n; {
			switch pick.next() % 4 {
			case 0:
				if got := g.Next(); got != want[i] {
					t.Fatalf("rate %v: Next at %d = %+v, want %+v", rate, i, got, want[i])
				}
				i++
			case 1:
				req, u := g.NextDeferred()
				req.Key = g.Key(u)
				if req != want[i] {
					t.Fatalf("rate %v: NextDeferred at %d = %+v, want %+v", rate, i, req, want[i])
				}
				i++
			case 2:
				req, _ := g.NextDeferred()
				if req.Op != want[i].Op || req.Arrival != want[i].Arrival || req.Key != 0 {
					t.Fatalf("rate %v: unsampled NextDeferred at %d = %+v, want %+v without its key", rate, i, req, want[i])
				}
				i++
			default:
				k := int(pick.next() % 40)
				if i+k > n {
					k = n - i
				}
				g.Skip(k)
				i += k
			}
		}
		g.Skip(0)
		g.Skip(-5)
		if got, want := g.Next(), ref.Next(); got != want {
			t.Fatalf("rate %v: after the mix and empty skips Next = %+v, want %+v", rate, got, want)
		}
	}
}

// TestFingerprintGolden pins one open-loop stream's fingerprint, computed
// before the sampler became a guide table: the trace is unchanged.
func TestFingerprintGolden(t *testing.T) {
	cfg := Config{Keys: 4096, ZipfS: 1.2, ReadFraction: 0.3, Seed: 7, Worker: 2, Rate: 1000}
	if got := Fingerprint(cfg, 100000); got != 0x2070e40f22ed0891 {
		t.Fatalf("Fingerprint = %#x, want 0x2070e40f22ed0891", got)
	}
}

// TestNextAndSkipAllocFree pins the replay path at zero allocations.
func TestNextAndSkipAllocFree(t *testing.T) {
	for _, rate := range []float64{0, 1000} {
		g := New(Config{Keys: 256, ZipfS: 0.9, ReadFraction: 0.5, Seed: 1, Rate: rate})
		if a := testing.AllocsPerRun(1000, func() { g.Next() }); a != 0 {
			t.Errorf("rate %v: Next allocates %.1f times", rate, a)
		}
		if a := testing.AllocsPerRun(1000, func() { g.Skip(7) }); a != 0 {
			t.Errorf("rate %v: Skip allocates %.1f times", rate, a)
		}
	}
}

var sampleSink int

// BenchmarkZipfSample is the sampler's cost per draw at the session
// workloads' key space (16 sessions x 16 keys, s = 0.9).
func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(256, 0.9)
	r := newRNG(1)
	us := make([]float64, 4096)
	for i := range us {
		us[i] = r.float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink += z.Sample(us[i&(len(us)-1)])
	}
}
