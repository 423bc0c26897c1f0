package hist

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile returns the ceil(q*n)-th smallest sample, the definition
// Quantile buckets.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileWithinBucketError is the histogram property test: for random
// sample sets spanning nanoseconds to minutes, every reported percentile
// must lie in the bucket of the exact percentile, i.e. within half a
// bucket width (≤ 2^-subBits relative error) of it.
func TestQuantileWithinBucketError(t *testing.T) {
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(5000)
		samples := make([]int64, n)
		h := New()
		for i := range samples {
			// Log-uniform magnitudes so every octave is exercised.
			v := int64(math.Exp(r.Float64() * 25)) // up to ~7e10 ns
			samples[i] = v
			h.Record(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range quantiles {
			exact := exactQuantile(samples, q)
			got := h.Quantile(q)
			lo, hi := bucketBounds(bucketIndex(exact))
			if got < lo || got > hi {
				t.Fatalf("seed %d q=%v: reported %d outside exact value %d's bucket [%d,%d]",
					seed, q, got, exact, lo, hi)
			}
			width := hi - lo + 1
			if d := got - exact; d > width/2+1 || d < -(width/2+1) {
				t.Fatalf("seed %d q=%v: reported %d is %d away from exact %d, bucket width %d",
					seed, q, got, d, exact, width)
			}
		}
		if h.Count() != int64(n) {
			t.Fatalf("count %d, want %d", h.Count(), n)
		}
		if h.min != samples[0] || h.Max() != samples[n-1] {
			t.Fatalf("min/max %d/%d, want %d/%d", h.min, h.Max(), samples[0], samples[n-1])
		}
	}
}

func TestBucketIndexBounds(t *testing.T) {
	for _, v := range []int64{0, 1, subCount - 1, subCount, subCount + 1,
		1000, 1 << 20, math.MaxInt64 - 1, math.MaxInt64} {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", v, i, numBuckets)
		}
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its own bucket %d's bounds [%d,%d]", v, i, lo, hi)
		}
	}
	// Indexes are monotone in the value.
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func randomHist(seed int64, n int) *Histogram {
	r := rand.New(rand.NewSource(seed))
	h := New()
	for i := 0; i < n; i++ {
		h.Record(int64(math.Exp(r.Float64() * 22)))
	}
	return h
}

func histsEqual(a, b *Histogram) bool {
	if a.total != b.total || a.sum != b.sum || a.min != b.min || a.Max() != b.Max() {
		return false
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			return false
		}
	}
	return true
}

// TestMergeAssociativeCommutative checks the merge laws the fleet-wide
// exchange relies on: any merge order of per-node histograms yields the
// same histogram, and the merge equals the histogram of the pooled
// samples.
func TestMergeAssociativeCommutative(t *testing.T) {
	a, b, c := randomHist(1, 500), randomHist(2, 800), randomHist(3, 50)

	ab := New()
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)

	cb := New()
	cb.Merge(c)
	cb.Merge(b)
	cb.Merge(a)

	bc := New()
	bc.Merge(b)
	bc.Merge(c)
	acc := New()
	acc.Merge(a)
	acc.Merge(bc)

	if !histsEqual(ab, cb) || !histsEqual(ab, acc) {
		t.Fatal("merge is not order-independent")
	}

	// Pooled: one histogram fed all three sample streams directly.
	pooled := New()
	for seed, n := range map[int64]int{1: 500, 2: 800, 3: 50} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			pooled.Record(int64(math.Exp(r.Float64() * 22)))
		}
	}
	if !histsEqual(ab, pooled) {
		t.Fatal("merged histogram differs from pooled-sample histogram")
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if ab.Quantile(q) != pooled.Quantile(q) {
			t.Fatalf("q=%v: merged %d != pooled %d", q, ab.Quantile(q), pooled.Quantile(q))
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	h := New()
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456) }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, h := range []*Histogram{New(), randomHist(7, 1000)} {
		b, err := h.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got := New()
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !histsEqual(h, got) {
			t.Fatal("binary round trip changed the histogram")
		}
	}
	if err := New().UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated input did not error")
	}
}

// wireBlob hand-encodes the sparse wire form: the header, then the given
// (bucket index, count) pairs in the order given.
func wireBlob(total int64, pairs ...[2]int64) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(total))
	b = binary.BigEndian.AppendUint64(b, 0)             // sum
	b = binary.BigEndian.AppendUint64(b, 0)             // min
	b = binary.BigEndian.AppendUint64(b, math.MaxInt64) // max
	b = binary.BigEndian.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = binary.BigEndian.AppendUint32(b, uint32(p[0]))
		b = binary.BigEndian.AppendUint64(b, uint64(p[1]))
	}
	return b
}

// TestUnmarshalRejectsNonCanonical pins that a blob whose buckets do not
// account for exactly its sample count is refused. A repeated bucket index
// would otherwise overwrite the earlier pair, leaving fewer bucket samples
// than the header counts, and Quantile would walk past every bucket and
// report the top one.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	for name, blob := range map[string][]byte{
		"repeated index":  wireBlob(2, [2]int64{5, 1}, [2]int64{5, 1}),
		"descending":      wireBlob(2, [2]int64{6, 1}, [2]int64{5, 1}),
		"short of total":  wireBlob(3, [2]int64{5, 1}),
		"over total":      wireBlob(1, [2]int64{5, 2}),
		"zero count":      wireBlob(1, [2]int64{4, 0}, [2]int64{5, 1}),
		"negative total":  wireBlob(-1),
		"overflowing sum": wireBlob(math.MaxInt64, [2]int64{1, math.MaxInt64}, [2]int64{2, 1}),
	} {
		if err := New().UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	h := New()
	if err := h.UnmarshalBinary(wireBlob(2, [2]int64{5, 1}, [2]int64{7, 1})); err != nil {
		t.Fatalf("canonical blob rejected: %v", err)
	}
	if h.Count() != 2 || h.Quantile(1) != 7 {
		t.Fatalf("decoded count %d, q1 %d; want 2 and 7", h.Count(), h.Quantile(1))
	}
}

// FuzzHistUnmarshal feeds the binary decoder arbitrary bytes, as a fleet
// peer could: decoding must never panic, an accepted blob must re-encode
// byte for byte, and its sample count must be the sum of its buckets.
func FuzzHistUnmarshal(f *testing.F) {
	for _, h := range []*Histogram{New(), randomHist(7, 200)} {
		f.Add(h.AppendBinary(nil))
	}
	f.Add(wireBlob(2, [2]int64{5, 1}, [2]int64{5, 1}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := New()
		if err := h.UnmarshalBinary(data); err != nil {
			return
		}
		if enc := h.AppendBinary(nil); !bytes.Equal(enc, data) {
			t.Fatalf("accepted blob re-encodes differently:\n%x\n%x", data, enc)
		}
		var sum int64
		for _, c := range h.counts {
			sum += c
		}
		if sum != h.Count() {
			t.Fatalf("Count %d, buckets sum to %d", h.Count(), sum)
		}
	})
}

func TestQuantileEmptyAndClamped(t *testing.T) {
	h := New()
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Record(-5) // clamps to zero
	if h.Quantile(-1) != 0 || h.Quantile(2) != 0 {
		t.Fatal("clamped quantiles of the zero sample != 0")
	}
	if h.min != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatal("negative sample did not clamp to zero")
	}
}

// TestCloneIndependentAndMergeDeterministic pins that a copy made by merging
// into a fresh histogram is deep (mutating the copy or the original never
// shows through) and merge determinism over such copies: merging per-strand
// histograms in any order into any number of intermediate copies reports
// identical summaries.
func TestCloneIndependentAndMergeDeterministic(t *testing.T) {
	clone := func(h *Histogram) *Histogram {
		c := New()
		c.Merge(h)
		return c
	}
	r := rand.New(rand.NewSource(7))
	strands := make([]*Histogram, 4)
	for i := range strands {
		strands[i] = New()
		for k := 0; k < 2000; k++ {
			strands[i].Record(int64(math.Exp(r.Float64() * 22)))
		}
	}

	c := clone(strands[0])
	if c.Count() != strands[0].Count() || c.Quantile(0.99) != strands[0].Quantile(0.99) {
		t.Fatalf("clone differs from original: %v vs %v", c.Summary(), strands[0].Summary())
	}
	c.Record(1 << 40)
	if strands[0].Max() == c.Max() {
		t.Fatal("clone aliases the original's buckets")
	}
	before := strands[0].Summary()
	strands[0].Record(1)
	if got := c.Count(); got != before.Count+1 {
		// c was cloned before the extra Record(1<<40) above plus has its own
		// sample; the original's later Record must not show through.
		t.Fatalf("original mutation visible in clone: count %d", got)
	}

	// Merge determinism: forward order, reverse order, and pairwise-tree
	// merges over clones all agree exactly.
	forward := New()
	for _, s := range strands {
		forward.Merge(clone(s))
	}
	reverse := New()
	for i := len(strands) - 1; i >= 0; i-- {
		reverse.Merge(clone(strands[i]))
	}
	left, right := New(), New()
	left.Merge(clone(strands[0]))
	left.Merge(clone(strands[1]))
	right.Merge(clone(strands[2]))
	right.Merge(clone(strands[3]))
	tree := clone(left)
	tree.Merge(right)

	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		a, b, c := forward.Quantile(q), reverse.Quantile(q), tree.Quantile(q)
		if a != b || a != c {
			t.Fatalf("q=%v: merge order changed the answer: %d %d %d", q, a, b, c)
		}
	}
	if forward.Count() != reverse.Count() || forward.Count() != tree.Count() ||
		forward.Sum() != tree.Sum() || forward.min != tree.min || forward.Max() != tree.Max() {
		t.Fatalf("merge aggregates diverge: %v %v %v",
			forward.Summary(), reverse.Summary(), tree.Summary())
	}
}
