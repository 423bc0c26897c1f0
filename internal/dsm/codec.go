package dsm

import (
	"fmt"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
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

// maxSlabDepsN is the widest dependency matrix a connection carves from its
// matrix slabs. A wider one, up to maxDepsN, is its own allocation, so the
// slabs a hostile depsN can make a connection hold stay within
// slabSize*maxSlabDepsN² words (512 KiB) and as many row headers.
const maxSlabDepsN = 32

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
// (depsN == 0). The matrix is never written once returned: a receiver keeps a
// parked group's matrix for as long as the group stays parked, and merges from
// it afterwards.
func (c *connDecoder) decodeDeps(d *transport.Decoder, what string) (uint64, vclock.Matrix, error) {
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
	ids := c.idScratch(nAct)
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
	m := c.matrix(depsN)
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

// connDecoder is what one inbound connection keeps between the payloads it
// decodes, for one of the two update kinds (transport.ConnCodec): the slabs
// decoded updates, batches, timestamps and dependency matrices are carved
// from, and a cache of the location strings it has built. It belongs to the
// goroutine serving the connection — no lock, no pool — and everything it
// hands out is immutable once returned, exactly like the sender's slabs (see
// Update).
//
// The nil *connDecoder is the stateless decoder behind PayloadCodec.Decode:
// every value is its own allocation. The two share one parse body per codec,
// so they cannot disagree on what a payload means.
//
// What a connection retains is bounded. The string cache is a fixed array; a
// slab is referenced by the decoder only until it is used up, and after that
// by the values carved from it, so the collector frees it with the last of
// those — an update in the inbox, a parked group's timestamp or matrix — and
// one long-parked group pins at most its own slabs.
type connDecoder struct {
	upd   []Update      // the unused rest of the update slab
	batch []UpdateBatch // the unused rest of the batch slab
	ts    []uint64      // the unused rest of the timestamp slab
	mx    matrixSlab    // the unused rest of the matrix slabs
	ids   []int         // decodeDeps's active-index scratch
	locs  [locCacheSize]string
}

const (
	// locCacheSize is the number of slots of a connection's location-string
	// cache, a power of two. The cache is direct-mapped: a location whose slot
	// holds another name replaces it, so a sender whose working set exceeds
	// the cache, or collides in it, costs a string per miss as every location
	// did before — never more memory.
	locCacheSize = 1024
	// maxCachedLoc is the longest location name the cache keeps, which bounds
	// its footprint at locCacheSize*maxCachedLoc bytes whatever a peer sends.
	maxCachedLoc = 128
)

// loc returns b as a string: the cached one when the connection has decoded
// this location before and its slot still holds it.
func (c *connDecoder) loc(b []byte) string {
	if c == nil || len(b) > maxCachedLoc {
		return string(b)
	}
	// The high half is folded in: a byte-wise hash mixes its low bits poorly.
	h := loctab.HashBytes(b)
	slot := &c.locs[(h^h>>16)&(locCacheSize-1)]
	if *slot != string(b) { // the comparison does not allocate
		*slot = string(b)
	}
	return *slot
}

// update returns the *Update a decoded update is stored in: the next element
// of the slab.
func (c *connDecoder) update() *Update {
	if c == nil {
		return new(Update)
	}
	return carve(&c.upd)
}

// updateBatch returns the *UpdateBatch a decoded batch is stored in: the next
// element of the slab.
func (c *connDecoder) updateBatch() *UpdateBatch {
	if c == nil {
		return new(UpdateBatch)
	}
	return carve(&c.batch)
}

// matrix returns a zeroed n-by-n dependency matrix: the next one of the
// matrix slabs, or its own allocation when stateless or wider than
// maxSlabDepsN.
func (c *connDecoder) matrix(n int) vclock.Matrix {
	if c == nil || n > maxSlabDepsN {
		return vclock.NewMatrix(n)
	}
	return c.mx.carve(n)
}

// timestamp reads an n-component timestamp (n > 0, and d holds at least 8n
// bytes) into the next n words of the slab, with the capacity cut to the
// length as stampLocked does. A timestamp wider than any real system's gets an
// allocation of its own, so a hostile length cannot inflate the slab.
func (c *connDecoder) timestamp(d *transport.Decoder, n int) vclock.VC {
	var ts vclock.VC
	switch {
	case c == nil || n > maxDepsN:
		ts = vclock.New(n)
	default:
		if len(c.ts) < n {
			c.ts = make([]uint64, slabSize*n)
		}
		ts, c.ts = c.ts[:n:n], c.ts[n:]
	}
	for i := range ts {
		ts[i] = d.Uint64()
	}
	return ts
}

// slabMark is where a decode found the slabs a parse carves from.
type slabMark struct {
	ts []uint64
	mx matrixSlab
}

// mark and rollback bracket a decode so that one that fails gives back the
// timestamp words and matrices it took: a stream of undecodable payloads
// consumes nothing. Updates and batches are carved only once a parse has
// succeeded.
func (c *connDecoder) mark() slabMark {
	if c == nil {
		return slabMark{}
	}
	return slabMark{c.ts, c.mx}
}

func (c *connDecoder) rollback(m slabMark) {
	if c != nil {
		c.ts, c.mx = m.ts, m.mx
	}
}

// idScratch returns an empty slice with room for n active indices.
func (c *connDecoder) idScratch(n int) []int {
	if c == nil {
		return make([]int, 0, n)
	}
	if cap(c.ids) < n {
		c.ids = make([]int, 0, n)
	}
	return c.ids[:0]
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
	return (*connDecoder)(nil).decodeUpdate(data)
}

func (updateCodec) NewConnDecoder() func([]byte) (any, error) {
	return new(connDecoder).decodeUpdate
}

// decodeUpdate is updateCodec's one parse body. The update is parsed into a
// local and copied into its slab slot only once the whole payload has decoded,
// so a failed decode consumes no slot.
func (c *connDecoder) decodeUpdate(data []byte) (any, error) {
	mark := c.mark()
	u, err := c.parseUpdate(data)
	if err != nil {
		c.rollback(mark)
		return nil, err
	}
	out := c.update()
	*out = u
	return out, nil
}

func (c *connDecoder) parseUpdate(data []byte) (Update, error) {
	d := transport.NewDecoder(data)
	u := Update{
		From:  int(d.Uint32()),
		Seq:   d.Uint64(),
		Op:    UpdateOp(d.Byte()),
		Label: history.Label(d.Byte()),
	}
	loc := d.Bytes()
	u.Value = int64(d.Uint64())
	if n := d.Count(8); n > 0 {
		u.TS = c.timestamp(d, n)
	}
	if d.Err() == nil {
		prevSeq, deps, err := c.decodeDeps(d, "update")
		if err != nil {
			return u, err
		}
		u.PrevSeq, u.Deps = prevSeq, deps
	}
	if err := d.Err(); err != nil {
		return u, fmt.Errorf("dsm: update codec: %w", err)
	}
	u.Loc = c.loc(loc)
	return u, nil
}

// batchCodec is the wire codec for KindUpdateBatch payloads. Layout, all
// big-endian — the per-entry sender ID is hoisted into the header since every
// entry of a batch comes from the same process:
//
//	u32 From | u64 FirstSeq | u64 Count |
//	u32 depsN | [ u64 PrevSeq | u32 nAct | nAct*u32 ids | nAct*nAct*u64 sub ] |
//	u32 nEntries | nEntries * ( u64 Seq | u8 elided<<7|Op | u8 Label | str Loc | u64 Value | u32 tsLen | tsLen*u64 TS )
//
// A scoped batch with obMatrix entries hoists their dependency metadata into
// the header (depsN > 0), encoded sparsely over the matrix's active indices
// exactly as in updateCodec; its entries carry no per-entry timestamps. Each
// entry's obligation class rides in the high bit of its Op byte (set: an
// obNone copy, Update.elided), so mixing costs no byte; a bit that is neither
// that one nor an op's fails the decode. Decode bounds nEntries, tsLen, nAct,
// and depsN, so a malformed length prefix fails with ErrTruncated instead of
// attempting a huge allocation.
type batchCodec struct{}

// entryElided is the batch entry's Op-byte bit that marks an elided copy, and
// entryOpBits the bits its operation may use (OpSet through OpAddFloat).
const (
	entryElided = 0x80
	entryOpBits = 0x03
)

func (batchCodec) Encode(dst []byte, payload any) ([]byte, error) {
	b, ok := payload.(*UpdateBatch)
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
		op := byte(u.Op)
		if u.elided {
			op |= entryElided
		}
		dst = append(dst, op)
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
	return (*connDecoder)(nil).decodeBatch(data)
}

func (batchCodec) NewConnDecoder() func([]byte) (any, error) {
	return new(connDecoder).decodeBatch
}

// decodeBatch is batchCodec's one parse body. The entry slice comes from the
// batch pool on either path; a failed decode returns it, and the timestamp
// words and matrix its parse took. Like an update, the batch is copied into
// its slab slot only once the whole payload has decoded.
func (c *connDecoder) decodeBatch(data []byte) (any, error) {
	mark := c.mark()
	b, err := c.parseBatch(data)
	if err != nil {
		c.rollback(mark)
		putUpdateSlice(b.Updates)
		return nil, err
	}
	out := c.updateBatch()
	*out = b
	return out, nil
}

func (c *connDecoder) parseBatch(data []byte) (UpdateBatch, error) {
	d := transport.NewDecoder(data)
	b := UpdateBatch{
		From:     int(d.Uint32()),
		FirstSeq: d.Uint64(),
		Count:    d.Uint64(),
	}
	if d.Err() == nil {
		prevSeq, deps, err := c.decodeDeps(d, "batch")
		if err != nil {
			return b, err
		}
		b.PrevSeq, b.Deps = prevSeq, deps
	}
	nEntries := d.Count(minBatchEntry)
	if nEntries > 0 {
		// Draw the entry slice from the batch pool: the receiving node's
		// apply path returns it once the batch has fully applied (see
		// updateSlicePool).
		b.Updates = getUpdateSlice(nEntries)
	}
	for i := 0; i < nEntries && d.Err() == nil; i++ {
		u := Update{From: b.From, Seq: d.Uint64()}
		op := d.Byte()
		if op&^(entryElided|entryOpBits) != 0 {
			return b, fmt.Errorf("dsm: batch codec: entry %d: unknown bits in op byte %#02x", i, op)
		}
		u.Op, u.elided = UpdateOp(op&entryOpBits), op&entryElided != 0
		u.Label = history.Label(d.Byte())
		loc := d.Bytes()
		u.Value = int64(d.Uint64())
		tsLen := d.Count(8)
		if d.Err() != nil {
			break
		}
		if tsLen > 0 {
			u.TS = c.timestamp(d, tsLen)
		}
		u.Loc = c.loc(loc)
		b.Updates = append(b.Updates, u)
	}
	if err := d.Err(); err != nil {
		return b, fmt.Errorf("dsm: batch codec: %w", err)
	}
	return b, nil
}
