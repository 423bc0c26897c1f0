package dsm

import (
	"reflect"
	"testing"
	"unsafe"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
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
	ts := vclock.New(3)
	ts[0], ts[1], ts[2] = 4, 0, 17
	u := Update{From: 2, Seq: 17, Op: OpSet, Loc: "x[3]", Value: -12345, TS: ts}
	got := roundTripUpdate(t, u)
	if got.From != u.From || got.Seq != u.Seq || got.Op != u.Op ||
		got.Loc != u.Loc || got.Value != u.Value {
		t.Fatalf("round trip changed fields: %+v -> %+v", u, got)
	}
	if got.TS.Len() != 3 || got.TS[0] != 4 || got.TS[1] != 0 || got.TS[2] != 17 {
		t.Fatalf("round trip changed timestamp: %v -> %v", u.TS, got.TS)
	}
}

func TestUpdateCodecPRAMOnlyNilTimestamp(t *testing.T) {
	u := Update{From: 0, Seq: 1, Op: OpSet, Loc: "y", Value: 7}
	got := roundTripUpdate(t, u)
	if got.TS != nil {
		t.Fatalf("nil timestamp round-tripped to %v", got.TS)
	}
	if got.Value != 7 || got.Loc != "y" {
		t.Fatalf("round trip changed fields: %+v", got)
	}
}

func TestUpdateCodecScopedCausalRoundTrip(t *testing.T) {
	deps := vclock.NewMatrix(3)
	deps.Set(0, 1, 4)
	deps.Set(2, 0, 9)
	u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, Deps: deps}
	got := roundTripUpdate(t, u)
	if got.Seq != 9 || got.Deps.Len() != 3 {
		t.Fatalf("scoped metadata changed: seq=%d deps=%v", got.Seq, got.Deps)
	}
	for p := 0; p < 3; p++ {
		for k := 0; k < 3; k++ {
			if got.Deps.Get(p, k) != deps.Get(p, k) {
				t.Fatalf("deps[%d][%d] = %d, want %d", p, k, got.Deps.Get(p, k), deps.Get(p, k))
			}
		}
	}
}

func TestBatchCodecScopedCausalRoundTrip(t *testing.T) {
	deps := vclock.NewMatrix(2)
	deps.Set(1, 0, 7)
	b := &UpdateBatch{
		From: 0, FirstSeq: 3, Count: 5, Deps: deps,
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
	if got.FirstSeq != 3 || got.Count != 5 || got.Deps.Len() != 2 || got.Deps.Get(1, 0) != 7 {
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
		deps := vclock.NewMatrix(n)
		deps.Set(0, 1, 4)
		deps.Set(1, 2, 9)
		u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, Deps: deps}
		enc, err := transport.EncodePayload(nil, KindUpdate, &u)
		if err != nil {
			t.Fatalf("encode (n=%d): %v", n, err)
		}
		if got := u.encodedSize(); got != len(enc) {
			t.Fatalf("n=%d: encodedSize = %d, codec writes %d bytes", n, got, len(enc))
		}
		got := roundTripUpdate(t, u)
		if got.Deps.Len() != n || got.Deps.Get(1, 2) != 9 || got.Deps.Get(0, 1) != 4 {
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
	base := Update{From: 0, Seq: 1, Op: OpSet, Loc: "s", Value: 1, Deps: vclock.NewMatrix(3)}
	base.Deps.Set(0, 2, 1)
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

// locSlot is the string-cache slot loc would use: the test's own statement of
// connDecoder.loc's hash.
func locSlot(loc string) uint32 {
	h := loctab.Hash(loc)
	return (h ^ h>>16) & (locCacheSize - 1)
}

// TestConnDecoderStringCacheCollision drives two different locations into the
// same slot of a connection's string cache. The cache is direct-mapped, so
// they evict each other; what must hold is that each update still decodes to
// its own location, that a hit returns the very string built before (no copy),
// and that strings handed out earlier are untouched by the eviction.
func TestConnDecoderStringCacheCollision(t *testing.T) {
	a := "sess/0/k0"
	var b string
	for i := 0; b == ""; i++ {
		if cand := "sess/" + string(rune('a'+i%26)) + "/k" + string(rune('0'+i/26%10)) + string(rune('0'+i/260)); locSlot(cand) == locSlot(a) && cand != a {
			b = cand
		}
		if i > 100*locCacheSize {
			t.Fatal("no colliding location found")
		}
	}
	wire := func(loc string) []byte {
		enc, err := updateCodec{}.Encode(nil, &Update{From: 1, Seq: 1, Op: OpSet, Loc: loc, Value: 1})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	wa, wb := wire(a), wire(b)
	c := new(connDecoder)
	decodeLoc := func(w []byte) string {
		t.Helper()
		got, err := c.decodeUpdate(w)
		if err != nil {
			t.Fatal(err)
		}
		return got.(*Update).Loc
	}
	sameString := func(x, y string) bool { return unsafe.StringData(x) == unsafe.StringData(y) }

	a1 := decodeLoc(wa)
	a2 := decodeLoc(wa)
	if a1 != a || !sameString(a1, a2) {
		t.Fatalf("repeat decode of %q: %q then %q, shared=%v; want one cached string", a, a1, a2, sameString(a1, a2))
	}
	b1 := decodeLoc(wb) // evicts a
	if b1 != b || c.locs[locSlot(a)] != b {
		t.Fatalf("colliding location decoded as %q, slot holds %q; want %q", b1, c.locs[locSlot(a)], b)
	}
	a3 := decodeLoc(wa) // evicts b, rebuilds a
	if a3 != a || a1 != a || b1 != b {
		t.Fatalf("after mutual eviction: a=%q (earlier %q), b=%q", a3, a1, b1)
	}
	if sameString(a3, a1) {
		t.Fatal("an evicted location came back as the old string: the slot was not replaced")
	}
	// A name too long to cache is copied every time and occupies no slot.
	long := string(make([]byte, maxCachedLoc+1))
	wl := wire(long)
	before := c.locs
	if l1, l2 := decodeLoc(wl), decodeLoc(wl); l1 != long || sameString(l1, l2) || c.locs != before {
		t.Fatal("a location longer than maxCachedLoc went through the cache")
	}
}

// TestConnDecoderSlabs: decoded updates, their timestamps and their dependency
// matrices are carved from slabs — slabSize of them per allocation, a
// timestamp of up to tsInline components inside its update's element, a wider
// one from the timestamp slab, each timestamp's and row's capacity cut to its
// length — and stay as decoded while the connection decodes on; a payload that
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
	for i := 0; i < 3*slabSize+5; i++ { // ends inside a slab
		dec, err := c.decodeUpdate(wire(&Update{From: 1, Seq: uint64(i + 1), Op: OpSet, Loc: "x",
			Value: int64(i), TS: vclock.VC{uint64(i), uint64(i + 1), 7}}))
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
	deps := vclock.NewMatrix(3)
	deps.Set(0, 1, 2)
	for _, width := range []int{3, tsInline + 1} {
		stamp := make(vclock.VC, width)
		stamp[0], stamp[1], stamp[2] = 1, 9, 3
		full := wire(&Update{From: 1, Seq: 9, Op: OpSet, Loc: "x", Value: 1, TS: stamp, Deps: deps})
		upd, ts := len(c.upd), len(c.ts)
		for cut := 1; cut < len(full); cut++ {
			if _, err := c.decodeUpdate(full[:cut]); err == nil {
				t.Fatalf("payload cut to %d of %d bytes decoded", cut, len(full))
			}
			if len(c.upd) != upd || len(c.ts) != ts {
				t.Fatalf("cut at %d: slabs moved, updates %d -> %d, timestamp words %d -> %d", cut, upd, len(c.upd), ts, len(c.ts))
			}
		}
		wantTS := ts
		if width > tsInline {
			wantTS = slabSize*width - width // the first wide stamp allocates the slab
		}
		dec, err := c.decodeUpdate(full)
		if err != nil || len(c.upd) != upd-1 || len(c.ts) != wantTS || !reflect.DeepEqual(dec.(*Update).TS, stamp) {
			t.Fatalf("the whole %d-wide payload: err %v, updates %d -> %d, timestamp words %d -> %d (want %d)",
				width, err, upd, len(c.upd), ts, len(c.ts), wantTS)
		}
	}

	// An oversized timestamp gets its own allocation; the slab is not resized
	// for it.
	ts := len(c.ts)
	wideTS := make(vclock.VC, maxDepsN+1)
	wideTS[1] = 10
	wide, err := c.decodeUpdate(wire(&Update{From: 1, Seq: 10, Op: OpSet, Loc: "x", TS: wideTS}))
	if err != nil || len(wide.(*Update).TS) != maxDepsN+1 || len(c.ts) != ts {
		t.Fatalf("oversized timestamp: err %v, slab words %d -> %d", err, ts, len(c.ts))
	}

	// Dependency matrices come from the matrix slabs, zeroed when carved. A
	// batch whose entries fail to decode after its matrix was filled gives the
	// matrix back, and the one carved from the same words next reads only its
	// own entries.
	matrix := func(n int, set ...[3]int) vclock.Matrix {
		m := vclock.NewMatrix(n)
		for _, e := range set {
			m.Set(e[0], e[1], uint64(e[2]))
		}
		return m
	}
	scoped := func(deps vclock.Matrix) []byte {
		return wire(&Update{From: 1, Seq: 11, Op: OpSet, Loc: "x", Deps: deps})
	}
	scopedBatch := func(deps vclock.Matrix) []byte {
		enc, err := batchCodec{}.Encode(nil, &UpdateBatch{From: 1, FirstSeq: 11, Count: 1, Deps: deps,
			Updates: []Update{{From: 1, Seq: 11, Op: OpSet, Loc: "x", Value: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	// lastCarved reports whether m is the matrix most recently carved from the
	// word slab: its last word sits right before the slab's unused rest.
	lastCarved := func(m vclock.Matrix) bool {
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
	putUpdateSlice(dec.(*UpdateBatch).Updates)
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
// no stronger than SC, no batch-entry elided bit, a timestamp that has a
// component for its sender, minimal varints — and Encode refuses an update
// whose timestamp's sender component is not its Seq, the component the wire
// leaves out.
func TestUpdateCodecRejectsMalformed(t *testing.T) {
	// From 1, Seq 5, flags, "x", Value 5, then the timestamp section and an
	// empty dependency section.
	raw := func(flags byte, ts ...byte) []byte {
		b := []byte{1, 5, flags}
		b = transport.AppendUvarintString(b, "x")
		b = transport.AppendUint64(b, 5)
		return append(append(b, ts...), 0)
	}
	set := byte(OpSet)
	if got, err := transport.DecodePayload(KindUpdate, raw(set, 2, 0, 0, 0, 0, 0, 0, 0, 9)); err != nil ||
		!reflect.DeepEqual(got.(*Update).TS, vclock.VC{9, 5}) {
		t.Fatalf("the hand-built update the cases below corrupt: %+v, %v", got, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no operation", raw(0, 0)},
		{"label above SC", raw(byte(history.LabelSC+1)<<2|set, 0)},
		{"elided bit on a single update", raw(0x80|set, 0)},
		{"timestamp with no component for its sender", raw(set, 1)},
		{"timestamp cut short", raw(set, 3, 0, 0, 0, 0, 0, 0, 0, 9)[:22]},
		{"non-minimal sender", append([]byte{0x81, 0x00}, raw(set, 0)[1:]...)},
		{"non-minimal seq", append([]byte{1, 0x85, 0x00}, raw(set, 0)[2:]...)},
		{"non-minimal timestamp length", raw(set, 0x80, 0x00)},
		{"sender beyond 31 bits", append(transport.AppendUvarint(nil, 1<<31), raw(set, 0)[1:]...)},
	} {
		if _, err := transport.DecodePayload(KindUpdate, tc.data); err == nil {
			t.Errorf("%s: % x decoded", tc.name, tc.data)
		}
	}
	for _, u := range []*Update{
		{From: 1, Seq: 5, Op: OpSet, Loc: "x", TS: vclock.VC{9, 4}},
		{From: 2, Seq: 5, Op: OpSet, Loc: "x", TS: vclock.VC{9, 5}},
		{From: 1, Seq: 5, Op: OpAddFloat + 1, Loc: "x"},
		{From: 1, Seq: 5, Op: OpSet, Label: history.LabelSC + 1, Loc: "x"},
		{From: -1, Seq: 5, Op: OpSet, Loc: "x"},
	} {
		if _, err := transport.EncodePayload(nil, KindUpdate, u); err == nil {
			t.Errorf("encoded %+v", *u)
		}
	}
}
