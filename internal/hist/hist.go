// Package hist implements the log-bucketed latency histogram the serving
// experiments report tail percentiles from. The bucket layout is the
// classic log-linear ("HDR") scheme: values below 2^subBits land in
// exact unit buckets, and every higher power-of-two octave is split into
// 2^subBits equal sub-buckets, so the relative quantization error is
// bounded by 2^-subBits (≈3.1%) at every magnitude from nanoseconds to
// hours. Bucket counts are plain integers, so histograms merge exactly:
// the merge of two histograms reports the same percentiles as one
// histogram fed the pooled samples, which is what lets a fleet of nodes
// exchange per-node histograms in their binary form (codec.go) and all
// agree on the fleet-wide tail.
//
// Record is allocation-free after New, so per-strand histograms can sit
// on serving hot paths.
package hist

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// subBits sets the sub-bucket resolution: 2^subBits sub-buckets per
	// octave, bounding relative error by 2^-subBits.
	subBits  = 5
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: the top index, for
	// v = 2^63-1, is (62-subBits)*subCount + (2*subCount - 1), which is
	// (64-subBits)*subCount - 1.
	numBuckets = (64 - subBits) * subCount
)

// Histogram is a log-bucketed counter of non-negative int64 samples
// (latencies in nanoseconds, by convention). The zero value is not usable;
// call New.
type Histogram struct {
	counts []int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{counts: make([]int64, numBuckets), min: math.MaxInt64}
}

// bucketIndex maps a non-negative value to its bucket. Values below
// subCount get exact unit buckets; above, the top subBits+1 bits of the
// value select the bucket, so each octave k >= subBits contributes
// subCount buckets of width 2^(k-subBits).
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	k := bits.Len64(u) - 1 // floor(log2 u), >= subBits
	shift := k - subBits
	return shift*subCount + int(u>>uint(shift))
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i)
	}
	shift := i/subCount - 1
	top := int64(i - shift*subCount) // in [subCount, 2*subCount)
	lo = top << uint(shift)
	return lo, lo + (1 << uint(shift)) - 1
}

// bucketMid returns the representative value reported for bucket i: the
// midpoint of its range, so the reported value is within half a bucket
// width of every sample that landed in it.
func bucketMid(i int) int64 {
	lo, hi := bucketBounds(i)
	return lo + (hi-lo)/2
}

// Record adds one sample. Negative samples count as zero (a clock step
// between two processes can produce one; it carries no information beyond
// "fast"). Record never allocates.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds one sample given as a duration.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all recorded samples (clamped ones as zero).
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0, 1]: the representative
// (bucket midpoint) of the bucket holding the ceil(q*Count)-th smallest
// sample. Out-of-range q values are clamped; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}

// Merge adds o's samples into h. Bucket counts add, so the result reports
// exactly the percentiles of the pooled sample set (merge is associative
// and commutative).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Summary is the fixed percentile report the serving experiments emit.
type Summary struct {
	Count int64
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Summary reports the standard serving percentiles, reading samples as
// nanoseconds.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.total,
		P50:   time.Duration(h.Quantile(0.50)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Max:   time.Duration(h.max),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p999=%v max=%v",
		s.Count, s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}
