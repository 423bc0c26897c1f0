package dsm

import (
	"fmt"

	"mixedmem/internal/history"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// updateCodec is the wire codec for KindUpdate payloads, registered so wire
// transports (internal/transport/tcp) can carry memory updates between OS
// processes. Layout, all big-endian:
//
//	u32 From | u64 Seq | u8 Op | u8 Label | str Loc | u64 Value | u32 tsLen | tsLen*u64 TS |
//	u32 depsN | [ u64 PrevSeq | u32 nAct | nAct*u32 ids | nAct*nAct*u64 sub ]
//
// Label is the location's lattice point (history.Label); LabelSlow marks a
// timestamp-elided update delivered on the sender's FIFO alone (see
// Update.Label). A PRAMOnly or timestamp-elided update has tsLen 0 and
// decodes with a nil timestamp, exactly like the in-process value it
// mirrors. depsN is 0 unless
// the update carries scoped-causal metadata, in which case the chain pointer
// and the dependency matrix follow. The matrix ships sparsely: only the
// submatrix over its active indices (rows or columns with a nonzero entry)
// is encoded, so an update's wire size grows with the processes that
// actually exchanged scoped updates, not with the cluster size — the wire
// form of garbage-collecting the columns idle peers would otherwise occupy.
type updateCodec struct{}

// maxDepsN bounds the decoded dependency-matrix dimension. Real systems are
// far smaller; the bound caps the n² allocation a hostile depsN prefix could
// otherwise demand (the sparse payload itself can be legitimately tiny, so
// remaining-bytes checks cannot bound the full dimension).
const maxDepsN = 1024

// appendDeps writes the depsN | [PrevSeq | sparse matrix] section shared by
// both codecs.
func appendDeps(dst []byte, prevSeq uint64, deps vclock.Matrix) []byte {
	dst = transport.AppendUint32(dst, uint32(deps.Len()))
	if deps != nil {
		dst = transport.AppendUint64(dst, prevSeq)
		dst = deps.EncodeActive(dst)
	}
	return dst
}

// decodeDeps parses the trailing depsN | [PrevSeq | sparse matrix] section
// shared by both codecs. It returns zeroes when the section is absent
// (depsN == 0).
func decodeDeps(d *transport.Decoder, what string) (uint64, vclock.Matrix, error) {
	depsN := int(d.Uint32())
	if d.Err() != nil || depsN == 0 {
		return 0, nil, nil
	}
	if depsN > maxDepsN {
		return 0, nil, fmt.Errorf("dsm: %s codec: %dx%d dependency matrix exceeds the %d dimension bound: %w",
			what, depsN, depsN, maxDepsN, transport.ErrTruncated)
	}
	prevSeq := d.Uint64()
	nAct := int(d.Uint32())
	if d.Err() == nil && (nAct > depsN || nAct > d.Remaining()/4) {
		return 0, nil, fmt.Errorf("dsm: %s codec: %d active dependency indices in %d bytes: %w",
			what, nAct, d.Remaining(), transport.ErrTruncated)
	}
	ids := make([]int, 0, nAct)
	prev := -1
	for i := 0; i < nAct && d.Err() == nil; i++ {
		id := int(d.Uint32())
		if id <= prev || id >= depsN {
			return 0, nil, fmt.Errorf("dsm: %s codec: active dependency index %d not ascending within [0,%d): %w",
				what, id, depsN, transport.ErrTruncated)
		}
		ids = append(ids, id)
		prev = id
	}
	if d.Err() == nil && nAct > 0 && nAct > d.Remaining()/8/nAct {
		return 0, nil, fmt.Errorf("dsm: %s codec: %dx%d dependency submatrix in %d bytes: %w",
			what, nAct, nAct, d.Remaining(), transport.ErrTruncated)
	}
	m := vclock.NewMatrix(depsN)
	for _, p := range ids {
		for _, k := range ids {
			m.Set(p, k, d.Uint64())
		}
	}
	if d.Err() != nil {
		return 0, nil, fmt.Errorf("dsm: %s codec: dependency matrix: %w", what, d.Err())
	}
	return prevSeq, m, nil
}

func init() {
	transport.RegisterPayload(KindUpdate, updateCodec{})
	transport.RegisterPayload(KindUpdateBatch, batchCodec{})
}

func (updateCodec) Encode(dst []byte, payload any) ([]byte, error) {
	u, ok := payload.(*Update)
	if !ok {
		return dst, fmt.Errorf("dsm: update codec: payload is %T", payload)
	}
	dst = transport.AppendUint32(dst, uint32(u.From))
	dst = transport.AppendUint64(dst, u.Seq)
	dst = append(dst, byte(u.Op))
	dst = append(dst, byte(u.Label))
	dst = transport.AppendString(dst, u.Loc)
	dst = transport.AppendUint64(dst, uint64(u.Value))
	dst = transport.AppendUint32(dst, uint32(u.TS.Len()))
	dst = u.TS.Encode(dst)
	return appendDeps(dst, u.PrevSeq, u.Deps), nil
}

func (updateCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	u := &Update{
		From:  int(d.Uint32()),
		Seq:   d.Uint64(),
		Op:    UpdateOp(d.Byte()),
		Label: history.Label(d.Byte()),
		Loc:   d.String(),
	}
	u.Value = int64(d.Uint64())
	if n := int(d.Uint32()); n > 0 && d.Err() == nil {
		if n > d.Remaining()/8 {
			return nil, fmt.Errorf("dsm: update codec: timestamp length %d in %d bytes: %w",
				n, d.Remaining(), transport.ErrTruncated)
		}
		ts := vclock.New(n)
		for i := range ts {
			ts[i] = d.Uint64()
		}
		u.TS = ts
	}
	if d.Err() == nil {
		prevSeq, deps, err := decodeDeps(d, "update")
		if err != nil {
			return nil, err
		}
		u.PrevSeq, u.Deps = prevSeq, deps
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("dsm: update codec: %w", err)
	}
	return u, nil
}

// batchCodec is the wire codec for KindUpdateBatch payloads. Layout, all
// big-endian — the per-entry sender ID is hoisted into the header since every
// entry of a batch comes from the same process:
//
//	u32 From | u64 FirstSeq | u64 Count |
//	u32 depsN | [ u64 PrevSeq | u32 nAct | nAct*u32 ids | nAct*nAct*u64 sub ] |
//	u32 nEntries | nEntries * ( u64 Seq | u8 Op | u8 Label | str Loc | u64 Value | u32 tsLen | tsLen*u64 TS )
//
// A scoped causal batch hoists its dependency metadata into the header
// (depsN > 0), encoded sparsely over the matrix's active indices exactly as
// in updateCodec; its entries carry no per-entry timestamps. Decode bounds
// nEntries, tsLen, nAct, and depsN, so a malformed length prefix fails with
// ErrTruncated instead of attempting a huge allocation.
type batchCodec struct{}

func (batchCodec) Encode(dst []byte, payload any) ([]byte, error) {
	b, ok := payload.(UpdateBatch)
	if !ok {
		return dst, fmt.Errorf("dsm: batch codec: payload is %T", payload)
	}
	dst = transport.AppendUint32(dst, uint32(b.From))
	dst = transport.AppendUint64(dst, b.FirstSeq)
	dst = transport.AppendUint64(dst, b.Count)
	dst = appendDeps(dst, b.PrevSeq, b.Deps)
	dst = transport.AppendUint32(dst, uint32(len(b.Updates)))
	for _, u := range b.Updates {
		dst = transport.AppendUint64(dst, u.Seq)
		dst = append(dst, byte(u.Op))
		dst = append(dst, byte(u.Label))
		dst = transport.AppendString(dst, u.Loc)
		dst = transport.AppendUint64(dst, uint64(u.Value))
		dst = transport.AppendUint32(dst, uint32(u.TS.Len()))
		dst = u.TS.Encode(dst)
	}
	return dst, nil
}

// minBatchEntry is the smallest possible encoded entry: seq + op + label +
// empty location + value + zero-length timestamp.
const minBatchEntry = 8 + 1 + 1 + 4 + 8 + 4

func (batchCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	b := UpdateBatch{
		From:     int(d.Uint32()),
		FirstSeq: d.Uint64(),
		Count:    d.Uint64(),
	}
	if d.Err() == nil {
		prevSeq, deps, err := decodeDeps(d, "batch")
		if err != nil {
			return nil, err
		}
		b.PrevSeq, b.Deps = prevSeq, deps
	}
	nEntries := int(d.Uint32())
	if d.Err() == nil && nEntries > d.Remaining()/minBatchEntry {
		return nil, fmt.Errorf("dsm: batch codec: %d entries in %d bytes: %w",
			nEntries, d.Remaining(), transport.ErrTruncated)
	}
	if nEntries > 0 && d.Err() == nil {
		// Draw the entry slice from the batch pool: the receiving node's
		// apply path returns it once the batch has fully applied (see
		// updateSlicePool).
		b.Updates = getUpdateSlice(nEntries)
	}
	for i := 0; i < nEntries && d.Err() == nil; i++ {
		u := Update{
			From:  b.From,
			Seq:   d.Uint64(),
			Op:    UpdateOp(d.Byte()),
			Label: history.Label(d.Byte()),
			Loc:   d.String(),
		}
		u.Value = int64(d.Uint64())
		tsLen := int(d.Uint32())
		if d.Err() == nil && tsLen > d.Remaining()/8 {
			return nil, fmt.Errorf("dsm: batch codec: timestamp length %d in %d bytes: %w",
				tsLen, d.Remaining(), transport.ErrTruncated)
		}
		if tsLen > 0 && d.Err() == nil {
			ts := vclock.New(tsLen)
			for k := range ts {
				ts[k] = d.Uint64()
			}
			u.TS = ts
		}
		b.Updates = append(b.Updates, u)
	}
	if err := d.Err(); err != nil {
		putUpdateSlice(b.Updates)
		return nil, fmt.Errorf("dsm: batch codec: %w", err)
	}
	return b, nil
}
