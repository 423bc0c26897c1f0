package dsm

import (
	"fmt"
	"math"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// updateCodec is the wire codec for KindUpdate payloads, registered so wire
// transports (internal/transport/tcp) can carry memory updates between OS
// processes. Layout (u64 big-endian, uvarint encoding/binary's minimal
// unsigned varint):
//
//	uvarint From | uvarint Seq | u8 flags | uvarint len | Loc | u64 Value |
//	uvarint tsLen | (tsLen-1)*u64 TS | uvarint depsN | [ uvarint nAct | nAct*uvarint ids | nAct*nAct*u64 sub ]
//
// flags is elided<<7 | Label<<2 | Op: Op is OpSet through OpAddFloat, Label
// the location's lattice point (history.Label, at most LabelSC; LabelSlow marks
// a timestamp-elided update delivered on the sender's FIFO alone, see
// Update.Label), and the elided bit is a batch entry's alone (batchCodec); any
// other value fails the decode. A PRAMOnly or timestamp-elided update has
// tsLen 0 and decodes with a nil timestamp, exactly like the in-process value
// it mirrors. A timestamp's sender component is not sent: it is the update's
// Seq (issue stamps TS from the clock its own write has just advanced), so the
// decoder restores it, and Encode refuses an update that breaks the rule.
// depsN is 0 unless the update carries scoped-causal metadata, in which case
// the dependency matrix follows; nothing on the wire orders an update after its
// sender's earlier ones, since the channel is FIFO. The matrix ships sparsely:
// only the submatrix over its active indices (rows or columns with a nonzero
// entry) is encoded, so an update's wire size grows with the processes that
// actually exchanged scoped updates, not with the cluster size — the wire form
// of garbage-collecting the columns idle peers would otherwise occupy.
//
// Varints carry only what the program fixes — sender ids, sequence numbers,
// lengths, counts, active indices — and clock and matrix entries stay
// fixed-width, so an update's size does not depend on the interleaving that
// produced its metadata (DESIGN.md §7).
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

// appendDeps writes the uvarint depsN | [sparse matrix] section shared by both
// codecs.
func appendDeps(dst []byte, deps vclock.Matrix) []byte {
	dst = transport.AppendUvarint(dst, uint64(deps.Len()))
	if deps.Len() > 0 {
		dst = deps.EncodeActive(dst)
	}
	return dst
}

// depsSize is the length of the section appendDeps writes.
func depsSize(deps vclock.Matrix) int {
	if deps.Len() == 0 {
		return 1
	}
	return transport.UvarintLen(uint64(deps.Len())) + deps.ActiveEncodedSize()
}

// decodeDeps parses the trailing depsN | [sparse matrix] section shared by
// both codecs. It returns nil when the section is absent (depsN == 0). The
// matrix is never written once returned: a receiver keeps a parked group's
// matrix for as long as the group stays parked, and merges from it afterwards.
func (c *connDecoder) decodeDeps(d *transport.Decoder) (vclock.Matrix, error) {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil, nil
	}
	if n > maxDepsN {
		return nil, fmt.Errorf("%dx%d dependency matrix exceeds the %d dimension bound: %w",
			n, n, maxDepsN, transport.ErrTruncated)
	}
	depsN := int(n)
	nAct := d.UvarintCount(1)
	if d.Err() == nil && nAct > depsN {
		return nil, fmt.Errorf("%d active dependency indices in a %d-wide matrix: %w",
			nAct, depsN, transport.ErrTruncated)
	}
	ids := c.idScratch(nAct)
	prev := -1
	for i := 0; i < nAct && d.Err() == nil; i++ {
		id := d.Uvarint()
		if d.Err() == nil && (id >= uint64(depsN) || int(id) <= prev) {
			return nil, fmt.Errorf("active dependency index %d not ascending within [0,%d): %w",
				id, depsN, transport.ErrTruncated)
		}
		ids = append(ids, int(id))
		prev = int(id)
	}
	if d.Err() == nil && nAct > 0 && nAct > d.Remaining()/8/nAct {
		return nil, fmt.Errorf("%dx%d dependency submatrix in %d bytes: %w",
			nAct, nAct, d.Remaining(), transport.ErrTruncated)
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("dependency matrix: %w", d.Err())
	}
	m := c.matrix(depsN)
	for _, p := range ids {
		for _, k := range ids {
			m.Set(p, k, d.Uint64())
		}
	}
	// An index is listed only if its row or column holds a nonzero entry,
	// which is how EncodeActive chose it: otherwise the payload would not be
	// the one encoding of its matrix.
	for _, p := range ids {
		active := false
		for _, k := range ids {
			active = active || m[p][k] != 0 || m[k][p] != 0
		}
		if !active {
			return nil, fmt.Errorf("dependency index %d listed with an all-zero row and column: %w",
				p, transport.ErrTruncated)
		}
	}
	return m, nil
}

// Flags-byte fields: the operation in the low bits, the label above it, and
// the batch entry's elided bit (Update.elided) on top.
const (
	flagOpBits    = 0x03
	flagLabelOff  = 2
	flagLabelBits = 0x1f
	flagElided    = 0x80
)

// appendFlags writes u's flags byte, carrying the elided bit only when elided
// says so (a batch entry); it fails for an op or label the byte cannot carry.
func appendFlags(dst []byte, u *Update, elided bool) ([]byte, error) {
	if u.Op < OpSet || u.Op > OpAddFloat || u.Label < history.LabelNone || u.Label > history.LabelSC {
		return dst, fmt.Errorf("op %d with label %d has no wire form", u.Op, u.Label)
	}
	b := byte(u.Label)<<flagLabelOff | byte(u.Op)
	if elided && u.elided {
		b |= flagElided
	}
	return append(dst, b), nil
}

// parseFlags reads a flags byte into u; the elided bit is legal only where
// elided allows it.
func parseFlags(d *transport.Decoder, u *Update, elided bool) error {
	b := d.Byte()
	if d.Err() != nil {
		return nil // the caller reports the truncation
	}
	op, label := UpdateOp(b&flagOpBits), history.Label(b>>flagLabelOff&flagLabelBits)
	if op == 0 || label > history.LabelSC || (!elided && b&flagElided != 0) {
		return fmt.Errorf("flags byte %#02x names no operation, label and obligation", b)
	}
	u.Op, u.Label, u.elided = op, label, b&flagElided != 0
	return nil
}

// appendTS writes the uvarint tsLen | (tsLen-1)*u64 section: every component
// of ts but the sender's, which is seq.
func appendTS(dst []byte, ts vclock.VC, from int, seq uint64) ([]byte, error) {
	dst = transport.AppendUvarint(dst, uint64(len(ts)))
	if len(ts) == 0 {
		return dst, nil
	}
	if from >= len(ts) || ts[from] != seq {
		return dst, fmt.Errorf("timestamp %v of sender %d does not end at seq %d", ts, from, seq)
	}
	for k, v := range ts {
		if k != from {
			dst = transport.AppendUint64(dst, v)
		}
	}
	return dst, nil
}

// tsSize is the length of the section appendTS writes.
func tsSize(ts vclock.VC) int {
	if len(ts) == 0 {
		return 1
	}
	return transport.UvarintLen(uint64(len(ts))) + 8*(len(ts)-1)
}

// entrySize is the length of what an update and a batch entry share: a
// sequence-number field holding seqField, then flags, location, value and
// timestamp.
func (u *Update) entrySize(seqField uint64) int {
	return transport.UvarintLen(seqField) + 1 + transport.UvarintLen(uint64(len(u.Loc))) + len(u.Loc) + 8 + tsSize(u.TS)
}

// appendEntry writes what an update and a batch entry share: seqField, then
// flags, location, value and timestamp.
func appendEntry(dst []byte, u *Update, from int, seqField uint64, elided bool) ([]byte, error) {
	dst = transport.AppendUvarint(dst, seqField)
	dst, err := appendFlags(dst, u, elided)
	if err != nil {
		return dst, err
	}
	dst = transport.AppendUvarintString(dst, u.Loc)
	dst = transport.AppendUint64(dst, uint64(u.Value))
	return appendTS(dst, u.TS, from, u.Seq)
}

// parseEntry reads the flags, location, value and timestamp of u, whose From
// and Seq are set; elided says whether the flags may carry the elided bit.
func (c *connDecoder) parseEntry(d *transport.Decoder, u *Update, elided bool) error {
	if err := parseFlags(d, u, elided); err != nil {
		return err
	}
	loc := d.UvarintBytes()
	u.Value = int64(d.Uint64())
	n := d.Uvarint()
	if d.Err() != nil {
		return nil
	}
	if n > 0 {
		if n-1 > uint64(d.Remaining()/8) {
			return fmt.Errorf("%w: %d-component timestamp in %d bytes", transport.ErrTruncated, n, d.Remaining())
		}
		if uint64(u.From) >= n {
			return fmt.Errorf("%d-component timestamp from sender %d", n, u.From)
		}
		u.TS = c.timestamp(d, int(n), u.From, u.Seq)
	}
	u.Loc = c.loc(loc)
	return nil
}

// end returns d's error, or one for bytes left over: a payload is decoded
// whole, so that the only input that decodes to a value is its encoding.
func end(d *transport.Decoder) error {
	if err := d.Err(); err != nil || d.Remaining() == 0 {
		return err
	}
	return fmt.Errorf("%d bytes after the payload", d.Remaining())
}

// maxFrom bounds a decoded sender id, so it converts to an int that no
// arithmetic on it overflows.
const maxFrom = 1<<31 - 1

// parseFrom reads a sender id.
func parseFrom(d *transport.Decoder) (int, error) {
	from := d.Uvarint()
	if from > maxFrom {
		return 0, fmt.Errorf("sender id %d out of range", from)
	}
	return int(from), nil
}

// connDecoder is what one inbound connection keeps between the payloads it
// decodes, for one of the two update kinds (transport.ConnCodec): the slabs
// decoded updates (each with room for its timestamp, as a sent one has),
// batches, batch entries' timestamps and dependency matrices are carved from,
// and a cache of the location strings it has built. It belongs to the
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
	upd   []stampedUpdate // the unused rest of the update slab
	batch []UpdateBatch   // the unused rest of the batch slab
	ts    []uint64        // the unused rest of the timestamp slab
	mx    matrixSlab      // the unused rest of the matrix slabs
	ids   []int           // decodeDeps's active-index scratch
	// spare is where the update being decoded parses a timestamp that fits
	// its element (stamp, until the element is carved), nil while a batch is.
	spare []uint64
	stamp [tsInline]uint64
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

// timestamp reads an n-component timestamp of an update from sender from (n >
// from, and d holds at least 8(n-1) bytes) into spare when it fits, otherwise
// into the next n words of the slab, with the capacity cut to the length as
// stampLocked does; the sender's component, which the wire
// leaves out, is seq. A timestamp wider than any real system's gets an
// allocation of its own, so a hostile length cannot inflate the slab.
func (c *connDecoder) timestamp(d *transport.Decoder, n, from int, seq uint64) vclock.VC {
	var ts vclock.VC
	switch {
	case c == nil || n > maxDepsN:
		ts = vclock.New(n)
	case n <= len(c.spare):
		ts, c.spare = c.spare[:n:n], nil
	default:
		if len(c.ts) < n {
			c.ts = make([]uint64, slabSize*n)
		}
		ts, c.ts = c.ts[:n:n], c.ts[n:]
	}
	for i := range ts {
		if i == from {
			ts[i] = seq
		} else {
			ts[i] = d.Uint64()
		}
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
	if u.From < 0 || u.From > maxFrom {
		return dst, fmt.Errorf("dsm: update codec: sender id %d out of range", u.From)
	}
	dst = transport.AppendUvarint(dst, uint64(u.From))
	dst, err := appendEntry(dst, u, u.From, u.Seq, false)
	if err != nil {
		return dst, fmt.Errorf("dsm: update codec: %w", err)
	}
	return appendDeps(dst, u.Deps), nil
}

func (updateCodec) Decode(data []byte) (any, error) {
	return (*connDecoder)(nil).decodeUpdate(data)
}

func (updateCodec) NewConnDecoder() func([]byte) (any, error) {
	return new(connDecoder).decodeUpdate
}

// decodeUpdate is updateCodec's one parse body. The update is parsed into a
// local, a timestamp that fits its element into the decoder's stamp, and both
// are copied into the slab's next element only once the whole payload has
// decoded, so a failed decode consumes no element.
func (c *connDecoder) decodeUpdate(data []byte) (any, error) {
	if c == nil {
		u, err := c.parseUpdate(data)
		if err != nil {
			return nil, err
		}
		return &u, nil
	}
	mark := c.mark()
	c.spare = c.stamp[:]
	u, err := c.parseUpdate(data)
	inline := c.spare == nil
	c.spare = nil
	if err != nil {
		c.rollback(mark)
		return nil, err
	}
	e := carve(&c.upd)
	e.Update = u
	if inline {
		e.TS = e.words[:len(u.TS):len(u.TS)]
		copy(e.TS, u.TS)
	}
	return &e.Update, nil
}

func (c *connDecoder) parseUpdate(data []byte) (Update, error) {
	d := transport.NewDecoder(data)
	var u Update
	var err error
	if u.From, err = parseFrom(d); err == nil {
		u.Seq = d.Uvarint()
		err = c.parseEntry(d, &u, false)
	}
	if err == nil && d.Err() == nil {
		u.Deps, err = c.decodeDeps(d)
	}
	if err == nil {
		err = end(d)
	}
	if err != nil {
		return u, fmt.Errorf("dsm: update codec: %w", err)
	}
	return u, nil
}

// batchCodec is the wire codec for KindUpdateBatch payloads. Layout, in
// updateCodec's notation — the sender ID is hoisted into the header since every
// entry of a batch comes from the same process, and each entry's Seq rides as
// its distance from FirstSeq:
//
//	uvarint From | uvarint FirstSeq | uvarint Count |
//	uvarint depsN | [ uvarint nAct | nAct*uvarint ids | nAct*nAct*u64 sub ] |
//	uvarint nEntries | nEntries * ( uvarint Seq-FirstSeq | u8 flags | uvarint len | Loc | u64 Value |
//	                                uvarint tsLen | (tsLen-1)*u64 TS )
//
// A scoped batch with obMatrix entries hoists their dependency metadata into
// the header (depsN > 0), encoded sparsely over the matrix's active indices
// exactly as in updateCodec; its entries carry no per-entry timestamps. Each
// entry's obligation class rides in the elided bit of its flags byte (set: an
// obNone copy, Update.elided), so mixing costs no byte. An entry's timestamp
// leaves out the sender's component as an update's does. Decode bounds
// nEntries (at most Count, the updates the batch covers), every length and
// depsN, so a malformed length prefix fails with ErrTruncated instead of
// attempting a huge allocation.
type batchCodec struct{}

func (batchCodec) Encode(dst []byte, payload any) ([]byte, error) {
	b, ok := payload.(*UpdateBatch)
	if !ok {
		return dst, fmt.Errorf("dsm: batch codec: payload is %T", payload)
	}
	if b.From < 0 || b.From > maxFrom || uint64(len(b.Updates)) > b.Count {
		return dst, fmt.Errorf("dsm: batch codec: sender %d with %d entries covering %d updates",
			b.From, len(b.Updates), b.Count)
	}
	dst = transport.AppendUvarint(dst, uint64(b.From))
	dst = transport.AppendUvarint(dst, b.FirstSeq)
	dst = transport.AppendUvarint(dst, b.Count)
	dst = appendDeps(dst, b.Deps)
	dst = transport.AppendUvarint(dst, uint64(len(b.Updates)))
	for i := range b.Updates {
		u := &b.Updates[i]
		if u.Seq < b.FirstSeq {
			return dst, fmt.Errorf("dsm: batch codec: entry %d: seq %d before the batch's first, %d", i, u.Seq, b.FirstSeq)
		}
		var err error
		if dst, err = appendEntry(dst, u, b.From, u.Seq-b.FirstSeq, true); err != nil {
			return dst, fmt.Errorf("dsm: batch codec: entry %d: %w", i, err)
		}
	}
	return dst, nil
}

// minBatchEntry is the smallest possible encoded entry: seq distance, flags,
// empty location, value and zero-length timestamp.
const minBatchEntry = 1 + 1 + 1 + 8 + 1

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
	var b UpdateBatch
	from, err := parseFrom(d)
	if err != nil {
		return b, fmt.Errorf("dsm: batch codec: %w", err)
	}
	b.From, b.FirstSeq, b.Count = from, d.Uvarint(), d.Uvarint()
	if d.Err() == nil {
		if b.Deps, err = c.decodeDeps(d); err != nil {
			return b, fmt.Errorf("dsm: batch codec: %w", err)
		}
	}
	nEntries := d.UvarintCount(minBatchEntry)
	if uint64(nEntries) > b.Count {
		return b, fmt.Errorf("dsm: batch codec: %d entries in a batch covering %d updates", nEntries, b.Count)
	}
	if nEntries > 0 {
		// Draw the entry slice from the batch pool: the receiving node's
		// apply path returns it once the batch has fully applied (see
		// updateSlicePool).
		b.Updates = getUpdateSlice(nEntries)
	}
	for i := 0; i < nEntries && d.Err() == nil; i++ {
		off := d.Uvarint()
		if off > math.MaxUint64-b.FirstSeq {
			return b, fmt.Errorf("dsm: batch codec: entry %d: seq %d+%d outside the %d updates the batch covers",
				i, b.FirstSeq, off, b.Count)
		}
		u := Update{From: b.From, Seq: b.FirstSeq + off}
		if err := c.parseEntry(d, &u, true); err != nil {
			return b, fmt.Errorf("dsm: batch codec: entry %d: %w", i, err)
		}
		if d.Err() == nil {
			b.Updates = append(b.Updates, u)
		}
	}
	if err := end(d); err != nil {
		return b, fmt.Errorf("dsm: batch codec: %w", err)
	}
	return b, nil
}
