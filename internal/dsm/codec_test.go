package dsm

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mixedmem/internal/history"
	"mixedmem/internal/slab"
	"mixedmem/internal/transport"
)

func roundTripUpdate(t *testing.T, u Update) Update {
	t.Helper()
	enc, err := transport.EncodePayload(nil, KindUpdate, &u)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := transport.DecodePayload(KindUpdate, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := dec.(*Update)
	if !ok {
		t.Fatalf("decoded %T, want *Update", dec)
	}
	return *got
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	ts := make([]uint64, 3)
	ts[0], ts[1], ts[2] = 4, 0, 17
	u := Update{From: 2, Seq: 17, Op: OpSet, Loc: "x[3]", Value: -12345, TS: ts, Ordinal: 9, Defines: true}
	got := roundTripUpdate(t, u)
	if got.From != u.From || got.Seq != u.Seq || got.Op != u.Op ||
		got.Loc != u.Loc || got.Value != u.Value || got.Ordinal != 9 || !got.Defines {
		t.Fatalf("round trip changed fields: %+v -> %+v", u, got)
	}
	if len(got.TS) != 3 || got.TS[0] != 4 || got.TS[1] != 0 || got.TS[2] != 17 {
		t.Fatalf("round trip changed timestamp: %v -> %v", u.TS, got.TS)
	}
	// A later update of the location refers to it: the name stays behind, and
	// a stateless decode of the reference re-encodes byte for byte.
	u.Defines = false
	got = roundTripUpdate(t, u)
	if got.Loc != "" || got.Ordinal != 9 || got.Defines {
		t.Fatalf("a reference round-tripped to %+v", got)
	}
	enc, err := transport.EncodePayload(nil, KindUpdate, &u)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, KindUpdate, &got, enc)
}

func TestUpdateCodecPRAMOnlyNilTimestamp(t *testing.T) {
	u := Update{From: 0, Seq: 1, Op: OpSet, Loc: "y", Value: 7, Defines: true}
	got := roundTripUpdate(t, u)
	if got.TS != nil {
		t.Fatalf("nil timestamp round-tripped to %v", got.TS)
	}
	if got.Value != 7 || got.Loc != "y" {
		t.Fatalf("round trip changed fields: %+v", got)
	}
}

func TestUpdateCodecScopedCausalRoundTrip(t *testing.T) {
	deps := NewMatrix(3)
	deps[0][1] = 4
	deps[2][0] = 9
	u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, Deps: deps}
	got := roundTripUpdate(t, u)
	if got.Seq != 9 || len(got.Deps) != 3 {
		t.Fatalf("scoped metadata changed: seq=%d deps=%v", got.Seq, got.Deps)
	}
	for p := 0; p < 3; p++ {
		for k := 0; k < 3; k++ {
			if got.Deps[p][k] != deps[p][k] {
				t.Fatalf("deps[%d][%d] = %d, want %d", p, k, got.Deps[p][k], deps[p][k])
			}
		}
	}
}

func TestBatchCodecScopedCausalRoundTrip(t *testing.T) {
	deps := NewMatrix(2)
	deps[1][0] = 7
	b := &UpdateBatch{
		From: 0, FirstSeq: 3, Deps: deps,
		Updates: []Update{
			{From: 0, Seq: 3, Op: OpSet, Loc: "a", Value: 1},
			{From: 0, Seq: 7, Op: OpAdd, Loc: "b", Value: 2},
		},
	}
	enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := transport.DecodePayload(KindUpdateBatch, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := dec.(*UpdateBatch)
	if got.FirstSeq != 3 || len(got.Deps) != 2 || got.Deps[1][0] != 7 {
		t.Fatalf("scoped batch metadata changed: %+v", got)
	}
	if len(got.Updates) != 2 || got.Updates[1].Seq != 7 || got.Updates[1].TS != nil {
		t.Fatalf("entries changed: %+v", got.Updates)
	}
}

func TestUpdateCodecRejectsWrongType(t *testing.T) {
	if _, err := transport.EncodePayload(nil, KindUpdate, "not an update"); err == nil {
		t.Fatal("encoding a non-Update payload succeeded")
	}
	// One payload type for the kind: the value form is not it.
	if _, err := transport.EncodePayload(nil, KindUpdate, Update{Loc: "x"}); err == nil {
		t.Fatal("encoding an Update value (not *Update) succeeded")
	}
	if _, err := transport.DecodePayload(KindUpdate, []byte{1, 2}); err == nil {
		t.Fatal("decoding a truncated update succeeded")
	}
}

// TestUpdateCodecWireSizeIgnoresIdlePeers pins the point of the sparse deps
// encoding: a scoped-causal update whose dependencies involve three peers
// costs the same bytes in a 4-process cluster and a 127-process one, and in a
// 256-process one only the byte the dimension's varint grows by.
func TestUpdateCodecWireSizeIgnoresIdlePeers(t *testing.T) {
	encodedLen := func(n int) int {
		deps := NewMatrix(n)
		deps[0][1] = 4
		deps[1][2] = 9
		u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, Deps: deps}
		enc, err := transport.EncodePayload(nil, KindUpdate, &u)
		if err != nil {
			t.Fatalf("encode (n=%d): %v", n, err)
		}
		if got := u.encodedSize(); got != len(enc) {
			t.Fatalf("n=%d: encodedSize = %d, codec writes %d bytes", n, got, len(enc))
		}
		got := roundTripUpdate(t, u)
		if len(got.Deps) != n || got.Deps[1][2] != 9 || got.Deps[0][1] != 4 {
			t.Fatalf("n=%d: deps did not round-trip: %v", n, got.Deps)
		}
		return len(enc)
	}
	small, mid, big := encodedLen(4), encodedLen(127), encodedLen(256)
	if small != mid || big != small+1 {
		t.Fatalf("wire size grew from %d to %d bytes with 123 idle peers, to %d with 252", small, mid, big)
	}
}

// TestDecodeDepsRejectsMalformedIndices checks the sparse section's
// validation: out-of-range, unsorted, or over-counted index lists fail
// cleanly instead of corrupting the matrix.
func TestDecodeDepsRejectsMalformedIndices(t *testing.T) {
	base := Update{From: 0, Seq: 1, Op: OpSet, Loc: "s", Value: 1, Deps: NewMatrix(3)}
	base.Deps[0][2] = 1
	enc, err := transport.EncodePayload(nil, KindUpdate, &base)
	if err != nil {
		t.Fatal(err)
	}
	// The deps section trails the payload: depsN | nAct | ids | sub, every
	// varint here one byte.
	sub := 2 * 2 * 8
	idsOff := len(enc) - sub - 2
	corrupt := func(mutate func([]byte)) error {
		bad := append([]byte(nil), enc...)
		mutate(bad)
		_, err := transport.DecodePayload(KindUpdate, bad)
		return err
	}
	if err := corrupt(func(b []byte) { b[idsOff+1] = 7 }); err == nil {
		t.Error("index beyond depsN decoded successfully")
	}
	if err := corrupt(func(b []byte) { b[idsOff], b[idsOff+1] = 2, 0 }); err == nil {
		t.Error("descending index list decoded successfully")
	}
	if err := corrupt(func(b []byte) { b[idsOff-1] = 4 }); err == nil {
		t.Error("nAct larger than depsN decoded successfully")
	}
}

// TestConnDecoderSlabs: decoded updates, their timestamps and their dependency
// matrices are carved from slabs while nothing comes back to the connection's
// pool — slab.Size of them per allocation, a timestamp of up to tsInline
// components inside its update's element, a wider one from the timestamp
// slab, each timestamp's and row's capacity cut to its length — and stay as
// decoded while the connection decodes on; a payload that
// fails to decode, wherever it fails, takes nothing from any slab; and a
// timestamp or matrix of a different width, or wider than the slabs take, does
// not disturb its neighbours.
func TestConnDecoderSlabs(t *testing.T) {
	c := new(connDecoder)
	wire := func(u *Update) []byte {
		enc, err := updateCodec{}.Encode(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	var got []*Update
	for i := 0; i < 3*slab.Size+5; i++ { // ends inside a slab
		dec, err := c.decodeUpdate(wire(&Update{From: 1, Seq: uint64(i + 1), Op: OpSet, Loc: "x",
			Value: int64(i), TS: []uint64{uint64(i), uint64(i + 1), 7}}))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec.(*Update))
	}
	for i, u := range got {
		if u.Seq != uint64(i+1) || u.Value != int64(i) || len(u.TS) != 3 || cap(u.TS) != 3 ||
			u.TS[0] != uint64(i) || u.TS[1] != uint64(i+1) || u.TS[2] != 7 {
			t.Fatalf("update %d reads %+v after %d later decodes", i, *u, len(got)-i-1)
		}
	}
	if uintptr(unsafe.Pointer(got[1]))-uintptr(unsafe.Pointer(got[0])) != unsafe.Sizeof(stampedUpdate{}) {
		t.Fatal("consecutive updates are not neighbours in one slab")
	}
	for i, u := range got {
		if &u.TS[0] != &(*stampedUpdate)(unsafe.Pointer(u)).words[0] {
			t.Fatalf("update %d's timestamp is not inside its slab element", i)
		}
	}
	if len(c.ts) != 0 {
		t.Fatalf("inline timestamps took %d words of the timestamp slab", len(c.ts))
	}

	// Failures at every truncation point of a payload with a timestamp and a
	// dependency matrix: nothing consumed. The timestamp rides in the update's
	// element when it fits, and takes its words from the timestamp slab when
	// it is one component wider.
	deps := NewMatrix(3)
	deps[0][1] = 2
	for _, width := range []int{3, tsInline + 1} {
		stamp := make([]uint64, width)
		stamp[0], stamp[1], stamp[2] = 1, 9, 3
		full := wire(&Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: 1, TS: stamp, Deps: deps})
		upd, ts := len(c.updates.slab), len(c.ts)
		for cut := 1; cut < len(full); cut++ {
			if _, err := c.decodeUpdate(full[:cut]); err == nil {
				t.Fatalf("payload cut to %d of %d bytes decoded", cut, len(full))
			}
			if len(c.updates.slab) != upd || len(c.ts) != ts {
				t.Fatalf("cut at %d: slabs moved, updates %d -> %d, timestamp words %d -> %d", cut, upd, len(c.updates.slab), ts, len(c.ts))
			}
		}
		wantTS := ts
		if width > tsInline {
			wantTS = slab.Size*width - width // the first wide stamp allocates the slab
		}
		dec, err := c.decodeUpdate(full)
		if err != nil || len(c.updates.slab) != upd-1 || len(c.ts) != wantTS || !reflect.DeepEqual(dec.(*Update).TS, stamp) {
			t.Fatalf("the whole %d-wide payload: err %v, updates %d -> %d, timestamp words %d -> %d (want %d)",
				width, err, upd, len(c.updates.slab), ts, len(c.ts), wantTS)
		}
	}

	// An oversized timestamp gets its own allocation; the slab is not resized
	// for it.
	ts := len(c.ts)
	wideTS := make([]uint64, maxDepsN+1)
	wideTS[1] = 10
	wide, err := c.decodeUpdate(wire(&Update{From: 1, Seq: 10, Op: OpSet, Loc: "x", TS: wideTS}))
	if err != nil || len(wide.(*Update).TS) != maxDepsN+1 || len(c.ts) != ts {
		t.Fatalf("oversized timestamp: err %v, slab words %d -> %d", err, ts, len(c.ts))
	}

	// Dependency matrices come from the matrix slabs, zeroed when carved. A
	// batch whose entries fail to decode after its matrix was filled gives the
	// matrix back, and the one carved from the same words next reads only its
	// own entries.
	matrix := func(n int, set ...[3]int) Matrix {
		m := NewMatrix(n)
		for _, e := range set {
			m[e[0]][e[1]] = uint64(e[2])
		}
		return m
	}
	scoped := func(deps Matrix) []byte {
		return wire(&Update{From: 1, Seq: 11, Op: OpSet, Loc: "x", Deps: deps})
	}
	scopedBatch := func(deps Matrix) []byte {
		enc, err := batchCodec{}.Encode(nil, &UpdateBatch{From: 1, FirstSeq: 11, Deps: deps,
			Updates: []Update{{From: 1, Seq: 11, Op: OpSet, Loc: "x", Value: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	// lastCarved reports whether m is the matrix most recently carved from the
	// word slab: its last word sits right before the slab's unused rest.
	lastCarved := func(m Matrix) bool {
		n := len(m)
		return len(c.mx.words) > 0 && unsafe.Add(unsafe.Pointer(&m[n-1][n-1]), 8) == unsafe.Pointer(&c.mx.words[0])
	}
	dense := matrix(3, [3]int{0, 0, 9}, [3]int{0, 1, 9}, [3]int{1, 2, 9}, [3]int{2, 0, 9}, [3]int{2, 2, 9})
	bad := scopedBatch(dense)
	rows, words := len(c.mx.rows), len(c.mx.words)
	if _, err := c.decodeBatch(bad[:len(bad)-1]); err == nil || len(c.mx.rows) != rows || len(c.mx.words) != words {
		t.Fatalf("batch cut in its entry: err %v, rows %d -> %d, words %d -> %d", err, rows, len(c.mx.rows), words, len(c.mx.words))
	}
	sparse := matrix(3, [3]int{0, 1, 4})
	dec, err := c.decodeBatch(scopedBatch(sparse))
	if err != nil || !reflect.DeepEqual(dec.(*UpdateBatch).Deps, sparse) || !lastCarved(dec.(*UpdateBatch).Deps) {
		t.Fatalf("matrix carved after a failed decode: err %v, %v, want %v from the slab", err, dec.(*UpdateBatch).Deps, sparse)
	}
	dec.(*UpdateBatch).release()
	if dec, err = c.decodeUpdate(scoped(dense)); err != nil || !reflect.DeepEqual(dec.(*Update).Deps, dense) {
		t.Fatalf("dense matrix: err %v, %v", err, dec.(*Update).Deps)
	}
	if m := dec.(*Update).Deps; cap(m) != 3 || cap(m[0]) != 3 || !lastCarved(m) {
		t.Fatal("a carved matrix's rows or row headers can grow into its neighbours")
	}
	// The widest matrix the slabs take comes from them; a wider one, up to
	// maxDepsN, gets its own allocation and leaves the slabs as they were.
	edge := matrix(maxSlabDepsN, [3]int{0, maxSlabDepsN - 1, 1})
	if dec, err = c.decodeUpdate(scoped(edge)); err != nil || !reflect.DeepEqual(dec.(*Update).Deps, edge) ||
		!lastCarved(dec.(*Update).Deps) {
		t.Fatalf("%d-wide matrix: err %v, not the last one carved from the slab", maxSlabDepsN, err)
	}
	rows, words = len(c.mx.rows), len(c.mx.words)
	huge := matrix(maxDepsN, [3]int{0, maxDepsN - 1, 1}, [3]int{maxDepsN - 1, 0, 2})
	dec, err = c.decodeUpdate(scoped(huge))
	if err != nil || !reflect.DeepEqual(dec.(*Update).Deps, huge) {
		t.Fatalf("%d-wide matrix: err %v", maxDepsN, err)
	}
	if len(c.mx.rows) != rows || len(c.mx.words) != words {
		t.Fatalf("%d-wide matrix came from the slabs: rows %d -> %d, words %d -> %d",
			maxDepsN, rows, len(c.mx.rows), words, len(c.mx.words))
	}
}

// TestUpdateCodecRejectsMalformed: a single-update payload decodes only if
// every field is one the runtime could have sent — a known operation, a label
// no stronger than SC, no batch-entry elided bit, presence bits that match the
// sections that follow, each of which is nonempty, a timestamp that has a
// component for its sender, minimal varints — and Encode refuses an update
// whose timestamp's sender component is not its Seq, the component the wire
// leaves out.
func TestUpdateCodecRejectsMalformed(t *testing.T) {
	// From 1, Seq 5, flags, the definition of ordinal 0 as "x", Value 5, then
	// the sections the flags promise.
	raw := func(flags byte, sections ...byte) []byte {
		b := []byte{1, 5, flags, 1}
		b = transport.AppendUvarintString(b, "x")
		b = transport.AppendUint64(b, 5)
		return append(b, sections...)
	}
	set, stamped, deps := byte(OpSet), byte(flagStamped|OpSet), byte(flagDeps|OpSet)
	if got, err := transport.DecodePayload(KindUpdate, raw(stamped, 2, 0, 0, 0, 0, 0, 0, 0, 9)); err != nil ||
		!reflect.DeepEqual(got.(*Update).TS, []uint64{9, 5}) {
		t.Fatalf("the hand-built update the cases below corrupt: %+v, %v", got, err)
	}
	// A 2-wide matrix whose one active index, 1, holds 5 on its diagonal.
	matrix := append([]byte{2, 1, 1}, transport.AppendUint64(nil, 5)...)
	if got, err := transport.DecodePayload(KindUpdate, raw(deps, matrix...)); err != nil || got.(*Update).Deps[1][1] != 5 {
		t.Fatalf("the hand-built scoped update: %+v, %v", got, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no operation", raw(0)},
		{"label above SC", raw(byte(history.LabelSC+1)<<2 | set)},
		{"elided bit on a single update", raw(0x80 | set)},
		{"a batch entry's elided and deps bits", raw(0x80|deps, matrix...)},
		{"stamped bit with an empty timestamp", raw(stamped, 0)},
		{"timestamp without its stamped bit", raw(set, 2, 0, 0, 0, 0, 0, 0, 0, 9)},
		{"deps bit with an empty dependency section", raw(deps, 0)},
		{"dependency section without its deps bit", raw(set, matrix...)},
		{"a label written into bits 5-6", raw(byte(history.LabelSC|0x18)<<2|set, 2, 0, 0, 0, 0, 0, 0, 0, 9)},
		{"timestamp with no component for its sender", raw(stamped, 1)},
		{"timestamp cut short", raw(stamped, 3, 0, 0, 0, 0, 0, 0, 0, 9)},
		{"non-minimal location field", append([]byte{1, 5, set, 0x81, 0x00}, raw(set)[4:]...)},
		{"ordinal beyond 32 bits", append(transport.AppendUvarint([]byte{1, 5, set}, 1<<33), raw(set)[6:]...)},
		{"non-minimal sender", append([]byte{0x81, 0x00}, raw(set)[1:]...)},
		{"non-minimal seq", append([]byte{1, 0x85, 0x00}, raw(set)[2:]...)},
		{"non-minimal timestamp length", raw(stamped, 0x82, 0x00, 0, 0, 0, 0, 0, 0, 0, 9)},
		{"sender beyond 31 bits", append(transport.AppendUvarint(nil, 1<<31), raw(set)[1:]...)},
	} {
		if _, err := transport.DecodePayload(KindUpdate, tc.data); err == nil {
			t.Errorf("%s: % x decoded", tc.name, tc.data)
		}
	}
	for _, u := range []*Update{
		{From: 1, Seq: 5, Op: OpSet, Loc: "x", TS: []uint64{9, 4}},
		{From: 2, Seq: 5, Op: OpSet, Loc: "x", TS: []uint64{9, 5}},
		{From: 1, Seq: 5, Op: OpAddFloat + 1, Loc: "x"},
		{From: 1, Seq: 5, Op: OpSet, Label: history.LabelSC + 1, Loc: "x"},
		{From: -1, Seq: 5, Op: OpSet, Loc: "x"},
	} {
		if _, err := transport.EncodePayload(nil, KindUpdate, u); err == nil {
			t.Errorf("encoded %+v", *u)
		}
	}
}

// TestConnDecoderRefusesOffClusterWidths: a connection's decoder knows its
// cluster's size and refuses a timestamp or dependency section of any other
// width before it allocates for it. A 3-byte dependency section that names a
// 1024-wide matrix costs the stateless decoder, which knows no cluster and
// bounds the width by maxDepsN alone, 8 MiB; it costs a connection of a
// 3-process cluster an error and its message.
func TestConnDecoderRefusesOffClusterWidths(t *testing.T) {
	head := func(flags byte) []byte {
		b := []byte{1, 1, flags, 0} // From 1, Seq 1, flags, ordinal 0
		return append(b, 0, 0, 0, 0, 0, 0, 0, 7)
	}
	wideDeps := append(head(flagDeps|byte(OpSet)), 0x80, 0x08, 0) // depsN 1024, no active index
	wideTS := append(head(flagStamped|byte(OpSet)), 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4)
	wideBatch := []byte{1, 1, 0x80, 0x08, 0, 1, 0, byte(OpSet), 0, 0, 0, 0, 0, 0, 0, 0, 7} // a batch whose matrix is 1024 wide
	allocated := func(decode func([]byte) (any, error), data []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	if n, err := allocated(updateCodec{}.Decode, wideDeps); err != nil || n < 8<<20 {
		t.Fatalf("stateless decode of the 1024-wide section: %d bytes, err %v; want the 8 MiB matrix", n, err)
	}
	for _, tc := range []struct {
		name  string
		codec transport.ConnCodec
		data  []byte
	}{
		{"1024-wide dependency section", updateCodec{}, wideDeps},
		{"5-wide timestamp", updateCodec{}, wideTS},
		{"1024-wide batch matrix", batchCodec{}, wideBatch},
	} {
		if _, err := tc.codec.Decode(tc.data); err != nil {
			t.Fatalf("%s: the stateless decode refuses it too (%v): the payload is not what it says", tc.name, err)
		}
		// The fewest bytes of 20 decodes: MemStats counts the whole process.
		decode := tc.codec.NewConnDecoder(3)
		least := uint64(math.MaxUint64)
		for range 20 {
			n, err := allocated(decode, tc.data)
			if !errors.Is(err, transport.ErrTruncated) {
				t.Fatalf("%s: err %v, want a refusal", tc.name, err)
			}
			least = min(least, n)
		}
		if least > 1<<10 {
			t.Errorf("%s: a refused decode allocates %d bytes, want at most 1 KiB", tc.name, least)
		}
	}
}

func TestMatrixRowsIndependent(t *testing.T) {
	m := NewMatrix(3)
	m[0][1] = 5
	m.Row(1)[2] = 7
	if m[0][1] != 5 || m[1][2] != 7 {
		t.Fatalf("entries lost: %v", m)
	}
	if m[1][1] != 0 || m[2][2] != 0 {
		t.Fatalf("writes leaked across rows: %v", m)
	}
	if len(m[0]) != cap(m[0]) {
		t.Fatalf("row 0 has capacity %d past its length %d", cap(m[0]), len(m[0]))
	}
}

func TestMatrixMerge(t *testing.T) {
	a := NewMatrix(2)
	a[0][0], a[1][1] = 4, 1
	b := NewMatrix(2)
	b[0][0], b[0][1] = 2, 9
	a.Merge(b)
	if a[0][0] != 4 || a[0][1] != 9 || a[1][1] != 1 {
		t.Fatalf("merge wrong: %v", a)
	}
	// Mismatched sizes merge only the shared prefix, never panic.
	a.Merge(NewMatrix(5))
	a.Merge(nil)
}

func TestMatrixActive(t *testing.T) {
	m := NewMatrix(6)
	m[1][4] = 7 // row 1 and column 4 become active
	got := m.appendActive(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("active = %v, want [1 4]", got)
	}
	if a := NewMatrix(6).appendActive(nil); len(a) != 0 {
		t.Fatalf("zero matrix has active indices %v", a)
	}
	if a := Matrix(nil).appendActive(nil); len(a) != 0 {
		t.Fatalf("nil matrix has active indices %v", a)
	}
}

// TestDepsSizeIgnoresIdlePeers embeds the same three-peer interaction in
// clusters of growing size: past the depsN prefix, the dependency section
// encodes to the same number of bytes, since idle rows and columns cost
// nothing on the wire, and depsSize counts exactly what appendDeps writes.
func TestDepsSizeIgnoresIdlePeers(t *testing.T) {
	sizes := []int{4, 16, 64, 256}
	first := -1
	for _, n := range sizes {
		m := NewMatrix(n)
		m[0][2], m[2][3], m[3][0] = 5, 1, 9
		enc := appendDeps(nil, m)
		if len(enc) != depsSize(m) {
			t.Fatalf("n=%d: encoded %d bytes, depsSize says %d", n, len(enc), depsSize(m))
		}
		sub := len(enc) - transport.UvarintLen(uint64(n))
		if first < 0 {
			first = sub
		} else if sub != first {
			t.Fatalf("n=%d: sparse encoding is %d bytes, n=%d was %d — size must not grow with idle peers",
				n, sub, sizes[0], first)
		}
	}
	// 3 active indices: a one-byte varint count + 3 one-byte ids + 3x3 submatrix.
	if want := 1 + 3*1 + 9*8; first != want {
		t.Fatalf("sparse encoding is %d bytes, want %d", first, want)
	}
	if got := depsSize(nil); got != len(appendDeps(nil, nil)) || got != 1 {
		t.Fatalf("empty section: depsSize %d, encoded %d bytes, want 1", got, len(appendDeps(nil, nil)))
	}
}
