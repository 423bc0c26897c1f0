package dsm

import (
	"fmt"
	"math"
	"slices"

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
//	uvarint From | uvarint Seq | u8 flags | uvarint Ordinal<<1|Defines | [ uvarint len | Loc ] |
//	u64 Value | [ uvarint tsLen | (tsLen-1)*u64 TS ] |
//	[ uvarint depsN | uvarint nAct | nAct*uvarint ids | nAct*nAct*u64 sub ]
//
// The location ships as its ordinal (Update.Ordinal) with the defines bit
// below it, and its name follows only when the bit is set: the sender's first
// update of a location names it, every later one refers to it, and the
// receiver's reference table (deliver.go) resolves the ordinal. A decoded
// reference has an empty Loc, and re-encodes to the same bytes.
// flags is elided<<7 | deps<<6 | stamped<<5 | Label<<2 | Op: Op is OpSet
// through OpAddFloat, Label the location's lattice point (history.Label, at
// most LabelSC; LabelSlow marks a timestamp-elided update delivered on the
// sender's FIFO alone, see Update.Label), and the elided bit is a batch entry's
// alone (batchCodec); any other value fails the decode. stamped and deps say
// which of the two bracketed sections follow, and a section that is absent
// costs nothing: a PRAMOnly or timestamp-elided update has no timestamp section
// and decodes with a nil timestamp, exactly like the in-process value it
// mirrors, and only an update with scoped-causal metadata has a dependency
// section. A set bit promises a nonempty section (tsLen, depsN > 0), so each
// value keeps one encoding. A timestamp's sender component is not sent: it is
// the update's Seq (issue stamps TS from the clock its own write has just
// advanced), so the decoder restores it, and Encode refuses an update that
// breaks the rule. Nothing on the wire orders an update after its sender's
// earlier ones, since the channel is FIFO. The matrix ships sparsely:
// only the submatrix over its active indices (rows or columns with a nonzero
// entry) is encoded, so an update's wire size grows with the processes that
// actually exchanged scoped updates, not with the cluster size — the wire form
// of garbage-collecting the columns idle peers would otherwise occupy.
//
// Varints carry only what the program fixes — sender ids, sequence numbers,
// ordinals, lengths, counts, active indices — clock and matrix entries stay
// fixed-width, and which sections are present follows from the label, scope
// and mode, so an update's size does not depend on the interleaving that
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
// codecs: an update's when its deps bit is set, a batch's always.
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

// decodeDeps parses the depsN | [sparse matrix] section shared by both
// codecs. It returns nil for depsN == 0, which only a batch may send: an
// update whose deps bit promised a matrix (present) must carry one. The matrix
// is never written once returned: a receiver keeps a parked group's matrix for
// as long as the group stays parked, and merges from it afterwards.
func (c *connDecoder) decodeDeps(d *transport.Decoder, present bool) (vclock.Matrix, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, nil
	}
	if n == 0 {
		if present {
			return nil, fmt.Errorf("deps bit set on an empty dependency section")
		}
		return nil, nil
	}
	if c.offCluster(n) {
		return nil, fmt.Errorf("%dx%d dependency matrix in a %d-process cluster: %w",
			n, n, c.nodes, transport.ErrTruncated)
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

// Flags-byte fields: the operation in the low bits, the label above it, the
// presence bits of the timestamp and dependency sections, and the batch
// entry's elided bit (Update.elided) on top.
const (
	flagOpBits    = 0x03
	flagLabelOff  = 2
	flagLabelBits = 0x07
	flagStamped   = 0x20
	flagDeps      = 0x40
	flagElided    = 0x80
)

// appendFlags writes u's flags byte. A batch entry (entry) may carry the
// elided bit and never the deps bit: its batch hoists the matrix. It fails for
// an op or label the byte cannot carry.
func appendFlags(dst []byte, u *Update, entry bool) ([]byte, error) {
	if u.Op < OpSet || u.Op > OpAddFloat || u.Label < history.LabelNone || u.Label > history.LabelSC {
		return dst, fmt.Errorf("op %d with label %d has no wire form", u.Op, u.Label)
	}
	b := byte(u.Label)<<flagLabelOff | byte(u.Op)
	if len(u.TS) > 0 {
		b |= flagStamped
	}
	if entry && u.elided {
		b |= flagElided
	}
	if !entry && u.Deps.Len() > 0 {
		b |= flagDeps
	}
	return append(dst, b), nil
}

// parseFlags reads a flags byte into u and returns its presence bits; the
// elided bit is legal only on a batch entry (entry), the deps bit only off
// one.
func parseFlags(d *transport.Decoder, u *Update, entry bool) (stamped, deps bool, err error) {
	b := d.Byte()
	if d.Err() != nil {
		return false, false, nil // the caller reports the truncation
	}
	op, label := UpdateOp(b&flagOpBits), history.Label(b>>flagLabelOff&flagLabelBits)
	stamped, deps = b&flagStamped != 0, b&flagDeps != 0
	if op == 0 || label > history.LabelSC || (!entry && b&flagElided != 0) || (entry && deps) {
		return false, false, fmt.Errorf("flags byte %#02x names no operation, label, sections and obligation", b)
	}
	u.Op, u.Label, u.elided = op, label, b&flagElided != 0
	return stamped, deps, nil
}

// appendTS writes the uvarint tsLen | (tsLen-1)*u64 section of a stamped
// update: every component of ts but the sender's, which is seq. An unstamped
// one has no section.
func appendTS(dst []byte, ts vclock.VC, from int, seq uint64) ([]byte, error) {
	if len(ts) == 0 {
		return dst, nil
	}
	dst = transport.AppendUvarint(dst, uint64(len(ts)))
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
		return 0
	}
	return transport.UvarintLen(uint64(len(ts))) + 8*(len(ts)-1)
}

// entrySize is the length of what an update and a batch entry share: a
// sequence-number field holding seqField, then flags, location, value and
// timestamp.
func (u *Update) entrySize(seqField uint64) int {
	s := transport.UvarintLen(seqField) + 1 + transport.UvarintLen(u.locField()) + 8 + tsSize(u.TS)
	if u.Defines {
		s += transport.UvarintLen(uint64(len(u.Loc))) + len(u.Loc)
	}
	return s
}

// locField is the location field's varint: the ordinal, and the defines bit
// below it.
func (u *Update) locField() uint64 {
	f := uint64(u.Ordinal) << 1
	if u.Defines {
		f |= 1
	}
	return f
}

// appendEntry writes what an update and a batch entry (entry) share:
// seqField, then flags, location, value and timestamp.
func appendEntry(dst []byte, u *Update, from int, seqField uint64, entry bool) ([]byte, error) {
	dst = transport.AppendUvarint(dst, seqField)
	dst, err := appendFlags(dst, u, entry)
	if err != nil {
		return dst, err
	}
	dst = transport.AppendUvarint(dst, u.locField())
	if u.Defines {
		dst = transport.AppendUvarintString(dst, u.Loc)
	}
	dst = transport.AppendUint64(dst, uint64(u.Value))
	return appendTS(dst, u.TS, from, u.Seq)
}

// parseEntry reads the flags, location, value and timestamp of u, whose From
// and Seq are set; entry says whether u is a batch entry (parseFlags). It
// returns the flags' deps bit and, for a definition, the name's bytes, which
// alias the payload: the caller names u once the entry has decoded.
func (c *connDecoder) parseEntry(d *transport.Decoder, u *Update, entry bool) (deps bool, loc []byte, err error) {
	stamped, deps, err := parseFlags(d, u, entry)
	if err != nil {
		return false, nil, err
	}
	f := d.Uvarint()
	if f>>1 > math.MaxUint32 {
		return false, nil, fmt.Errorf("location ordinal %d out of range", f>>1)
	}
	u.Ordinal, u.Defines = uint32(f>>1), f&1 != 0
	if u.Defines {
		loc = d.UvarintBytes()
	}
	u.Value = int64(d.Uint64())
	if stamped {
		n := d.Uvarint()
		if d.Err() != nil {
			return deps, nil, nil
		}
		switch {
		case c.offCluster(n):
			return false, nil, fmt.Errorf("%d-component timestamp in a %d-process cluster: %w", n, c.nodes, transport.ErrTruncated)
		case n == 0:
			return false, nil, fmt.Errorf("stamped bit set on an empty timestamp")
		case n-1 > uint64(d.Remaining()/8):
			return false, nil, fmt.Errorf("%w: %d-component timestamp in %d bytes", transport.ErrTruncated, n, d.Remaining())
		case uint64(u.From) >= n:
			return false, nil, fmt.Errorf("%d-component timestamp from sender %d", n, u.From)
		}
		u.TS = c.timestamp(d, int(n), u.From, u.Seq)
	}
	return deps, loc, nil
}

// define names u's location loc, which aliases the payload, once u has decoded
// and only if it defines one. The stateless decoder copies it at once, into
// names when it has one (a batch's, so its names cost one chunk). A connection
// defers it until the whole payload has decoded (carveName), so a decode that
// fails carves nothing from the name arena.
func (c *connDecoder) define(d *transport.Decoder, u *Update, loc []byte, names *loctab.NameArena) {
	switch {
	case !u.Defines || d.Err() != nil:
	case c != nil:
		c.defs = append(c.defs, loc)
	case names != nil:
		u.Loc = names.Carve(loc)
	default:
		u.Loc = string(loc)
	}
}

// carveName gives u, a decoded update, the k-th name define deferred when u
// defines, carved from the connection's arena, and returns the index of the
// next name. A payload's updates are visited in order, then dropDefs lets go
// of the payload.
func (c *connDecoder) carveName(u *Update, k int) int {
	if !u.Defines {
		return k
	}
	u.Loc = c.names.Carve(c.defs[k])
	return k + 1
}

func (c *connDecoder) dropDefs() {
	clear(c.defs)
	c.defs = c.defs[:0]
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
// decodes, for one of the two update kinds (transport.ConnCodec): the pool
// decoded updates come from (each with room for its timestamp, as a sent one
// has), the slabs batches, batch entries' timestamps and dependency matrices
// are carved from, and the name arena definitions' names are carved from. It
// resolves no location names: those live in the receiving node's reference
// tables, which see each update once, after the transport's dedup — a
// connection sees replayed duplicates, and a redial replays only the unacked
// suffix, so it could neither trust nor complete a dictionary. It belongs to
// the goroutine serving the connection — no lock — and everything it hands out
// is immutable while held, exactly like what a sender hands out (see Update). A
// decoded update holds one reference, which the receiving node releases when
// its group settles, returning the element to the connection's pool from the
// node's goroutine.
//
// The nil *connDecoder is the stateless decoder behind PayloadCodec.Decode:
// every value is its own allocation. The two share one parse body per codec,
// so they cannot disagree on what a payload means; a decoded update's pool
// link (Update.elem) is bookkeeping, not part of its value.
//
// What a connection retains is bounded: its update pool holds as many
// elements as it ever had decoded and unsettled at once, and a slab of the
// other kinds is referenced by the decoder only until it is used up, and after
// that by the values carved from it, so the collector frees it with the last
// of those — a batch in the inbox, a parked group's timestamp or matrix — and
// one long-parked group pins at most its own slabs. A name chunk lives while
// any name carved from it does, which the node's location table keeps for its
// life; a name the node already knew is garbage inside its chunk
// (loctab.NameArena bounds the waste).
type connDecoder struct {
	// nodes is the size of the cluster the connection belongs to: the width
	// of every timestamp and dependency matrix a peer of it can send.
	nodes   int
	updates updatePool // where decoded updates come from
	batches batchPool  // where decoded batches come from
	ts      []uint64   // the unused rest of the timestamp slab
	mx      matrixSlab // the unused rest of the matrix slabs
	ids     []int      // decodeDeps's active-index scratch
	names   loctab.NameArena
	// defs holds the names of the payload being decoded, in order, until
	// carveName carves them.
	defs [][]byte
	// spare is where the update being decoded parses a timestamp that fits
	// its element (stamp, until the element is carved), nil while a batch is.
	// A batch being decoded (inBatch) parses into entries and stampWords,
	// which are copied into an element only once the decode has succeeded.
	spare      []uint64
	stamp      [tsInline]uint64
	inBatch    bool
	entries    []Update
	stampWords []uint64
}

// offCluster reports whether a timestamp or dependency matrix n wide is one
// no peer of the connection's cluster sends, which the decoder refuses before
// anything of that width is allocated. The stateless decoder knows no cluster,
// nor does a connection built without one (nodes zero): they bound a matrix by
// maxDepsN, and a timestamp by the bytes that carry it.
func (c *connDecoder) offCluster(n uint64) bool {
	return c != nil && c.nodes > 0 && n != uint64(c.nodes)
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
// from, and d holds at least 8(n-1) bytes) into the stamp words of the batch
// being decoded, into spare when it fits, otherwise into the next n words of
// the slab, with the capacity cut to the length as stampLocked does; the
// sender's component, which the wire leaves out, is seq. A timestamp wider than any real system's gets an
// allocation of its own, so a hostile length cannot inflate the slab.
func (c *connDecoder) timestamp(d *transport.Decoder, n, from int, seq uint64) vclock.VC {
	var ts vclock.VC
	switch {
	case c == nil || n > maxDepsN:
		ts = vclock.New(n)
	case c.inBatch:
		off := len(c.stampWords)
		c.stampWords = slices.Grow(c.stampWords, n)[:off+n]
		ts = c.stampWords[off : off+n : off+n]
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
		c.dropDefs()
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
	if u.Deps.Len() == 0 {
		return dst, nil
	}
	return appendDeps(dst, u.Deps), nil
}

func (updateCodec) Decode(data []byte) (any, error) {
	return (*connDecoder)(nil).decodeUpdate(data)
}

func (updateCodec) NewConnDecoder(nodes int) func([]byte) (any, error) {
	return (&connDecoder{nodes: nodes}).decodeUpdate
}

// decodeUpdate is updateCodec's one parse body. The update is parsed into a
// local, a timestamp that fits its element into the decoder's stamp, and both
// are copied into an element of the connection's pool, and a definition's name
// carved, only once the whole payload has decoded, so a failed decode consumes
// no element and no name bytes.
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
	e := takeUpdate(&c.updates, &u, 1)
	if inline {
		e.TS = e.words[:len(u.TS):len(u.TS)]
		copy(e.TS, u.TS)
	}
	c.carveName(&e.Update, 0)
	c.dropDefs()
	return &e.Update, nil
}

func (c *connDecoder) parseUpdate(data []byte) (Update, error) {
	d := transport.NewDecoder(data)
	var u Update
	var err error
	var deps bool
	var loc []byte
	if u.From, err = parseFrom(d); err == nil {
		u.Seq = d.Uvarint()
		if deps, loc, err = c.parseEntry(d, &u, false); err == nil {
			c.define(d, &u, loc, nil)
		}
	}
	if err == nil && deps && d.Err() == nil {
		u.Deps, err = c.decodeDeps(d, true)
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
//	uvarint From | uvarint FirstSeq |
//	uvarint depsN | [ uvarint nAct | nAct*uvarint ids | nAct*nAct*u64 sub ] |
//	uvarint nEntries | nEntries * ( uvarint Seq-FirstSeq | u8 flags | uvarint Ordinal<<1|Defines | [ uvarint len | Loc ] |
//	                                u64 Value | [ uvarint tsLen | (tsLen-1)*u64 TS ] )
//
// A scoped batch with obMatrix entries hoists their dependency metadata into
// the header (depsN > 0), encoded sparsely over the matrix's active indices
// exactly as in updateCodec; its entries carry no per-entry timestamps, and an
// entry's flags never set the deps bit. Each entry's obligation class rides in
// the elided bit of its flags byte (set: an obNone copy, Update.elided), so
// mixing costs no byte. An entry's timestamp, present when its stamped bit is
// set, leaves out the sender's component as an update's does. The run a batch
// covers is FirstSeq through its latest entry, which the outbox never
// coalesces away, so no count of the updates it covers rides along; a batch
// with more entries than its run has sequence numbers fails the decode.
// Decode bounds nEntries by the bytes left, every length and depsN, so a
// malformed length prefix fails with ErrTruncated instead of attempting a huge
// allocation.
type batchCodec struct{}

func (batchCodec) Encode(dst []byte, payload any) ([]byte, error) {
	b, ok := payload.(*UpdateBatch)
	if !ok {
		return dst, fmt.Errorf("dsm: batch codec: payload is %T", payload)
	}
	if b.From < 0 || b.From > maxFrom {
		return dst, fmt.Errorf("dsm: batch codec: sender id %d out of range", b.From)
	}
	dst = transport.AppendUvarint(dst, uint64(b.From))
	dst = transport.AppendUvarint(dst, b.FirstSeq)
	dst = appendDeps(dst, b.Deps)
	dst = transport.AppendUvarint(dst, uint64(len(b.Updates)))
	var last uint64
	for i := range b.Updates {
		u := &b.Updates[i]
		if u.Seq < b.FirstSeq {
			return dst, fmt.Errorf("dsm: batch codec: entry %d: seq %d before the batch's first, %d", i, u.Seq, b.FirstSeq)
		}
		last = max(last, u.Seq-b.FirstSeq)
		var err error
		if dst, err = appendEntry(dst, u, b.From, u.Seq-b.FirstSeq, true); err != nil {
			return dst, fmt.Errorf("dsm: batch codec: entry %d: %w", i, err)
		}
	}
	if err := checkRun(len(b.Updates), last); err != nil {
		return dst, fmt.Errorf("dsm: batch codec: %w", err)
	}
	return dst, nil
}

// checkRun fails for a batch with more entries than its run, FirstSeq
// through the entry last past it, has sequence numbers.
func checkRun(entries int, last uint64) error {
	if entries > 0 && uint64(entries-1) > last {
		return fmt.Errorf("%d entries in a run of %d updates", entries, last+1)
	}
	return nil
}

// minBatchEntry is the smallest possible encoded entry: seq distance, flags,
// a one-byte location reference and value.
const minBatchEntry = 1 + 1 + 1 + 8

func (batchCodec) Decode(data []byte) (any, error) {
	return (*connDecoder)(nil).decodeBatch(data)
}

func (batchCodec) NewConnDecoder(nodes int) func([]byte) (any, error) {
	return (&connDecoder{nodes: nodes}).decodeBatch
}

// decodeBatch is batchCodec's one parse body. A connection parses into its
// scratch entries and words, and copies them into an element of its batch pool
// only once the whole payload has decoded, so a failed decode consumes no
// element, and gives back the matrix its parse took; the stateless decoder
// allocates. Like an update, a batch's definitions' names are carved only once
// the whole payload has decoded.
func (c *connDecoder) decodeBatch(data []byte) (any, error) {
	if c == nil {
		b := new(UpdateBatch)
		if err := c.parseBatch(data, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	mark := c.mark()
	b := UpdateBatch{Updates: c.entries[:0]}
	c.stampWords, c.inBatch = c.stampWords[:0], true
	err := c.parseBatch(data, &b)
	c.inBatch = false
	var e *stampedBatch
	if err == nil {
		e = takeBatch(&c.batches, len(b.Updates), len(c.stampWords))
		e.From, e.FirstSeq, e.Deps = b.From, b.FirstSeq, b.Deps
		e.Updates = append(e.Updates, b.Updates...)
		fillStamps(e)
	}
	// The scratch keeps its capacity for the next payload, but not a peer's
	// huge batch a second time: the element keeps that.
	clear(b.Updates)
	if cap(b.Updates) <= entrySlab {
		c.entries = b.Updates[:0]
	}
	if cap(c.stampWords) > wordSlab {
		c.stampWords = nil
	}
	if err != nil {
		c.rollback(mark)
		return nil, err
	}
	for i, k := 0, 0; i < len(e.Updates); i++ {
		k = c.carveName(&e.Updates[i], k)
	}
	c.dropDefs()
	return &e.UpdateBatch, nil
}

func (c *connDecoder) parseBatch(data []byte, b *UpdateBatch) error {
	d := transport.NewDecoder(data)
	from, err := parseFrom(d)
	if err != nil {
		return fmt.Errorf("dsm: batch codec: %w", err)
	}
	b.From, b.FirstSeq = from, d.Uvarint()
	if d.Err() == nil {
		if b.Deps, err = c.decodeDeps(d, false); err != nil {
			return fmt.Errorf("dsm: batch codec: %w", err)
		}
	}
	nEntries := d.UvarintCount(minBatchEntry)
	var arena loctab.NameArena
	var names *loctab.NameArena
	if c == nil && nEntries > 0 {
		b.Updates = make([]Update, 0, nEntries)
		names = &arena
	}
	var last uint64
	for i := 0; i < nEntries && d.Err() == nil; i++ {
		off := d.Uvarint()
		if off > math.MaxUint64-b.FirstSeq {
			return fmt.Errorf("dsm: batch codec: entry %d: seq %d+%d past the 64-bit range", i, b.FirstSeq, off)
		}
		last = max(last, off)
		u := Update{From: b.From, Seq: b.FirstSeq + off}
		_, loc, err := c.parseEntry(d, &u, true)
		if err != nil {
			return fmt.Errorf("dsm: batch codec: entry %d: %w", i, err)
		}
		c.define(d, &u, loc, names)
		if d.Err() == nil {
			b.Updates = append(b.Updates, u)
		}
	}
	err = end(d)
	if err == nil {
		err = checkRun(nEntries, last)
	}
	if err != nil {
		return fmt.Errorf("dsm: batch codec: %w", err)
	}
	return nil
}
