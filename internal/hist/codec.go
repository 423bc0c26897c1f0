package hist

import (
	"encoding/binary"
	"fmt"
)

// The wire layout is sparse: a fixed header (sample count, sum, min, max)
// followed by one (bucket index, count) pair per nonzero bucket. Serving
// histograms are heavily concentrated, so the sparse form is a few hundred
// bytes where the dense array would be 15 KB.

// MarshalBinary encodes the histogram in the sparse wire form.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	return h.AppendBinary(nil), nil
}

// AppendBinary appends the sparse wire form to dst and returns the extended
// slice — the alloc-free variant for callers that reuse a pooled buffer
// (transport.GetBuf) across encodes.
func (h *Histogram) AppendBinary(dst []byte) []byte {
	nz := 0
	for _, c := range h.counts {
		if c != 0 {
			nz++
		}
	}
	buf := dst
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.total))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.sum))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.min))
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.max))
	buf = binary.BigEndian.AppendUint32(buf, uint32(nz))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(i))
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

// UnmarshalBinary decodes a histogram previously encoded with
// MarshalBinary, replacing h's contents. The blob may come from a peer, so
// it must be the canonical form: bucket indexes strictly ascending, every
// count positive, and the counts summing to the header's sample count —
// anything else is an error, and on error h's contents are unspecified.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	if len(data) < 8*4+4 {
		return fmt.Errorf("hist: truncated header (%d bytes)", len(data))
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	} else {
		clear(h.counts)
	}
	h.total = int64(binary.BigEndian.Uint64(data[0:]))
	h.sum = int64(binary.BigEndian.Uint64(data[8:]))
	h.min = int64(binary.BigEndian.Uint64(data[16:]))
	h.max = int64(binary.BigEndian.Uint64(data[24:]))
	nz := int(binary.BigEndian.Uint32(data[32:]))
	data = data[36:]
	if len(data) != nz*12 {
		return fmt.Errorf("hist: %d pairs but %d trailing bytes", nz, len(data))
	}
	prev, sum := -1, int64(0)
	for p := 0; p < nz; p++ {
		i := int(binary.BigEndian.Uint32(data[p*12:]))
		c := int64(binary.BigEndian.Uint64(data[p*12+4:]))
		if i <= prev || i >= numBuckets {
			return fmt.Errorf("hist: bucket index %d after %d: out of order or range", i, prev)
		}
		if c <= 0 || c > h.total-sum {
			return fmt.Errorf("hist: bucket %d count %d overruns the sample count %d", i, c, h.total)
		}
		h.counts[i] = c
		prev, sum = i, sum+c
	}
	if sum != h.total {
		return fmt.Errorf("hist: bucket counts sum to %d, header says %d", sum, h.total)
	}
	return nil
}
