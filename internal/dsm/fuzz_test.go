package dsm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mixedmem/internal/history"
	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

// valueOf returns a decoded payload as the value it carries: a pooled update's
// or batch's link to its element (Update.elem, UpdateBatch.elem) is
// bookkeeping, not part of what it says, and so is the capacity an element's
// empty entry slice keeps.
func valueOf(payload any) any {
	if u, ok := payload.(*Update); ok && u.elem != nil {
		v := *u
		v.elem = nil
		return &v
	}
	if b, ok := payload.(*UpdateBatch); ok && b.elem != nil {
		v := *b
		v.elem = nil
		if len(v.Updates) == 0 {
			v.Updates = nil
		}
		return &v
	}
	return payload
}

// decodeBoth decodes data twice — statelessly through the registry, and with
// conn, a connection decoder that has already decoded every earlier input of
// the run — and fails unless the two agree: deep-equal values, the same error.
// A decode that fails must leave every one of the connection's slabs where it
// was. It returns the stateless result.
func decodeBoth(t *testing.T, kind string, conn *connDecoder, decode func([]byte) (any, error), data []byte) (any, error) {
	t.Helper()
	want, wantErr := transport.DecodePayload(kind, data)
	if len(data) == 0 {
		return want, wantErr // a wire transport never hands a codec an empty payload
	}
	slabs := func() [6]int {
		return [6]int{len(conn.updates.slab), len(conn.batches.slab), len(conn.ts), len(conn.mx.rows), len(conn.mx.words), conn.names.Len()}
	}
	before := slabs()
	got, err := decode(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("connection decoder: error %v, stateless decode: %v", err, wantErr)
	}
	if !reflect.DeepEqual(valueOf(got), want) {
		t.Fatalf("connection decoder disagrees with the stateless decode:\n%+v\n%+v", got, want)
	}
	if after := slabs(); err != nil && after != before {
		t.Fatalf("a failed decode consumed slab (updates, batches, timestamp words, matrix rows, matrix words, name bytes): %v -> %v",
			before, after)
	}
	return want, wantErr
}

// nonMinimal returns enc with its first varint, a one-byte one, stretched to
// two bytes: the same value, not in its one accepted encoding.
func nonMinimal(enc []byte) []byte {
	return append([]byte{enc[0] | 0x80, 0}, enc[1:]...)
}

// roundTrip fails unless data, which decoded to dec, is exactly what encoding
// dec writes: a decoder that accepts only canonical input maps no two inputs
// to one value, so decode∘encode is the identity on everything it accepts.
func roundTrip(t *testing.T, kind string, dec any, data []byte) {
	t.Helper()
	enc, err := transport.EncodePayload(nil, kind, dec)
	if err != nil {
		t.Fatalf("re-encoding a decoded %s failed: %v", kind, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("%s decoded from % x re-encodes as % x", kind, data, enc)
	}
}

// v1Updates and v1Batches are the payloads the fuzzers' checked-in corpora
// held in the first wire format (fixed-width integers, full timestamps,
// trailing bytes ignored): the structured seeds and what fuzzing had found.
// Every one must fail to decode today, so that a peer still speaking the old
// format is refused rather than misread.
var (
	v1Updates = []string{
		"0000", // seed1
		"0000000000000\x00\x00\x00\x01000000000\x00\x00\x00\x00\x00\x00\x00\x0100000000", // seed2
		"0000000000000\x00\x00\x00\x0300000000000\x00\x00\x00\x0100000000",               // seed3
		"00000000000000000", // seed4
		"0000000000",        // seed5
		"0000000000000\x00\x00\x00\x01000000000\x00000", // seed6
		"\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\t\x01\x03\x00\x00\x00\bslowcell\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00",                                                                                            // seed7_slow
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x01\x02\x00\x00\x00\x01c\x00\x00\x00\x00\x00\x00\x00\b\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", // seed8_causal
	}
	v1Batches = []string{
		"0000", // seed1
		"00000000000000000000\x00\x00\x00\x00\x00000",    // seed2
		"00000000000000000000\x00\x00\x00\x020000000000", // seed3
		"000000000000000000000000",                       // seed4
		"00000000000000000000\x00\x00\x00\x0100000000",   // seed5
		"00000000000000000000",                           // seed6
		"\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\a\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\a\x01\x03\x00\x00\x00\x04cell\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\b\x01\x03\x00\x00\x00\x04cell\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00", // seed7_slow
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", // the all-zero header seed
	}
)

// v2Updates and v2Batches are the fuzzers' structured seeds in the second
// wire format, whose updates carried an empty timestamp and dependency section
// as a zero byte each and whose batches carried the count of updates they
// covered. Every one must fail to decode today.
var (
	v2Updates = []string{
		"\x00\x01\x01\x01\x01y\x00\x00\x00\x00\x00\x00\x00\t\x00\x00",
		"\x01\x03\x02\x02\xff\xff\xff\xff\xff\xff\xff\xfc\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00",
		"\x01\x05\x01\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x05",
		"\x02\t\r\x11\bslowcell\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00",
		"\x00\x02\t\x00\x00\x00\x00\x00\x00\x00\x00\b\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		"\x02\a\x01\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x03\x03\x00\x01\x02" + strings.Repeat("\x00", 23) + "\a" + strings.Repeat("\x00", 7) +
			"\x02" + strings.Repeat("\x00", 40),
	}
	v2Batches = []string{
		"\x00\x01\x01\x00\x01\x00\x01\x01\x01x\x00\x00\x00\x00\x00\x00\x00\a\x00",
		"\x02\x04\x03\x00\x02\x00\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff\x03\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x02\x02\a\x01b\x00\x00\x00\x00\x00\x00\x00\x02\x03\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00\x00\x00\x00\x00",
		"\x01\x02\x02\x02\x02\x00\x01" + strings.Repeat("\x00", 15) + "\x03" + strings.Repeat("\x00", 16) +
			"\x02\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x05\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00",
		"\x02\a\x02\x00\x02\x00\r\t\x04cell\x00\x00\x00\x00\x00\x00\x00\x01\x00\x01\r\b\x00\x00\x00\x00\x00\x00\x00\x02\x00",
		"\x01\x02\x05\x03\x02\x01\x02" + strings.Repeat("\x00", 23) + "\x06" + strings.Repeat("\x00", 8) +
			"\x04\x00\x82\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x02\x01\x00\x00\x00\x00\x00\x00\x00\x00\x05\x00" +
			"\x03\x82\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x04\x01\x00\x00\x00\x00\x00\x00\x00\x00\x06\x00",
	}
)

// TestV1PayloadsRejected: the payloads of the first wire format — every entry
// the fuzzers' corpora held — the seeds of the second, and each current seed
// with a non-minimal first varint fail to decode, statelessly and through a
// connection's decoder.
func TestV1PayloadsRejected(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		decode func([]byte) (any, error)
		old    []string
		seeds  [][]byte
	}{
		{KindUpdate, new(connDecoder).decodeUpdate, append(v1Updates, v2Updates...), updateSeeds(t)},
		{KindUpdateBatch, new(connDecoder).decodeBatch, append(v1Batches, v2Batches...), batchSeeds(t)},
	} {
		inputs := tc.old
		for _, seed := range tc.seeds {
			inputs = append(inputs, string(nonMinimal(seed)))
		}
		for _, in := range inputs {
			if v, err := transport.DecodePayload(tc.kind, []byte(in)); err == nil {
				t.Errorf("%s: % x decoded to %+v", tc.kind, in, v)
			}
			if _, err := tc.decode([]byte(in)); err == nil {
				t.Errorf("%s: % x decoded through a connection", tc.kind, in)
			}
		}
	}
}

// FuzzBatchCodecRoundTrip drives the KindUpdateBatch wire codec with
// arbitrary bytes: decoding must never panic, and any batch that decodes must
// re-encode to exactly the bytes it came from (the decoder is the wire
// contract both the sim and TCP transports rely on). It is differential: one
// long-lived connection decoder is fed every input in sequence and must agree
// with the stateless decode on each (decodeBoth).
func FuzzBatchCodecRoundTrip(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
		f.Add(nonMinimal(seed))
	}
	for _, old := range append(v1Batches, v2Batches...) {
		f.Add([]byte(old))
	}
	f.Add([]byte{})

	conn := new(connDecoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBoth(t, KindUpdateBatch, conn, conn.decodeBatch, data)
		if err != nil || dec == nil {
			return // rejected cleanly (or empty input): that is the contract
		}
		if _, ok := dec.(*UpdateBatch); !ok {
			t.Fatalf("decoded %T, want *UpdateBatch", dec)
		}
		roundTrip(t, KindUpdateBatch, dec, data)
	})
}

// batchSeeds are the batch fuzzer's structured seeds, encoded: the shapes the
// runtime sends, and two cut inside their last entry after the matrix was
// carved, which the connection decoder must give back.
func batchSeeds(tb testing.TB) [][]byte {
	seedBatches := []*UpdateBatch{
		{From: 0, FirstSeq: 1, Updates: []Update{
			{From: 0, Seq: 1, Op: OpSet, Loc: "x", Defines: true, Value: 7},
		}},
		{From: 2, FirstSeq: 4, Updates: []Update{
			{From: 2, Seq: 4, Op: OpSet, Ordinal: 1, Value: -1, TS: vclock.VC{9, 0, 4}},
			{From: 2, Seq: 6, Op: OpAdd, Loc: "b", Ordinal: 3, Defines: true, Value: 2, TS: vclock.VC{9, 0, 6}},
		}},
	}
	scoped := &UpdateBatch{From: 1, FirstSeq: 2, Deps: vclock.NewMatrix(2),
		Updates: []Update{
			{From: 1, Seq: 2, Op: OpSet, Loc: "s", Value: 5},
			{From: 1, Seq: 3, Op: OpAddFloat, Loc: "t", Value: 1},
		}}
	scoped.Deps.Set(0, 1, 3)
	seedBatches = append(seedBatches, scoped,
		// An all-Slow batch: timestamp-elided entries only.
		&UpdateBatch{From: 2, FirstSeq: 7, Updates: []Update{
			{From: 2, Seq: 7, Op: OpSet, Loc: "cell", Ordinal: 4, Defines: true, Value: 1, Label: history.LabelSlow},
			{From: 2, Seq: 8, Op: OpSet, Ordinal: 4, Value: 2, Label: history.LabelSlow},
		}})
	var seeds [][]byte
	for _, b := range seedBatches {
		enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		seeds = append(seeds, enc)
	}
	// A scoped batch cut inside its last entry, after the matrix was carved:
	// the connection decoder must give the matrix back.
	cut, err := transport.EncodePayload(nil, KindUpdateBatch, scoped)
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	seeds = append(seeds, cut[:len(cut)-1])
	// A batch mixing obligations — elided entries around causal ones under
	// one matrix — whole, and cut inside its last entry.
	mixed := &UpdateBatch{From: 1, FirstSeq: 2, Deps: vclock.NewMatrix(3),
		Updates: []Update{
			{From: 1, Seq: 2, Op: OpAdd, Loc: "ctr", Value: 1, elided: true},
			{From: 1, Seq: 4, Op: OpSet, Loc: "s", Value: 5},
			{From: 1, Seq: 5, Op: OpAdd, Loc: "ctr", Value: 1, elided: true},
			{From: 1, Seq: 6, Op: OpSet, Loc: "t", Value: 6},
		}}
	mixed.Deps.Set(2, 1, 6)
	whole, err := transport.EncodePayload(nil, KindUpdateBatch, mixed)
	if err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	seeds = append(seeds, whole, whole[:len(whole)-3])
	// A batch of definitions whose names fill more than a chunk of the
	// connection's name arena, whole and cut inside its last entry.
	defs := &UpdateBatch{From: 2, FirstSeq: 1}
	for i := range 48 {
		defs.Updates = append(defs.Updates, Update{From: 2, Seq: uint64(i + 1), Op: OpSet,
			Loc: fmt.Sprintf("%s/%d", strings.Repeat("d", i*4), i), Ordinal: uint32(i), Defines: true, Value: int64(i)})
	}
	if whole, err = transport.EncodePayload(nil, KindUpdateBatch, defs); err != nil {
		tb.Fatalf("seed encode: %v", err)
	}
	return append(seeds, whole, whole[:len(whole)-1])
}

// FuzzUpdateCodecRoundTrip is the singleton-update analogue: the KindUpdate
// decoder must never panic and must round-trip every accepted input, and a
// long-lived connection decoder must agree with the stateless one throughout.
func FuzzUpdateCodecRoundTrip(f *testing.F) {
	for _, seed := range updateSeeds(f) {
		f.Add(seed)
		f.Add(nonMinimal(seed))
	}
	for _, old := range append(v1Updates, v2Updates...) {
		f.Add([]byte(old))
	}
	f.Add([]byte{})

	conn := new(connDecoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBoth(t, KindUpdate, conn, conn.decodeUpdate, data)
		if err != nil || dec == nil {
			return
		}
		if _, ok := dec.(*Update); !ok {
			t.Fatalf("decoded %T, want *Update", dec)
		}
		roundTrip(t, KindUpdate, dec, data)
	})
}

// updateSeeds are the update fuzzer's structured seeds, encoded: the shapes
// the runtime sends, and a scoped update — whose matrix the connection
// decoder carves — followed by its copy cut inside the matrix, which must take
// nothing.
func updateSeeds(tb testing.TB) [][]byte {
	seeds := []Update{
		{From: 0, Seq: 1, Op: OpSet, Loc: "y", Defines: true, Value: 9},
		{From: 1, Seq: 3, Op: OpAdd, Ordinal: 1, Value: -4, TS: vclock.VC{1, 3}},
	}
	scoped := Update{From: 1, Seq: 5, Op: OpSet, Loc: "s", Value: 2, Deps: vclock.NewMatrix(2)}
	scoped.Deps.Set(1, 1, 5)
	seeds = append(seeds, scoped,
		// Label-tagged frames: a timestamp-elided slow update and a causal
		// one with a vector timestamp.
		Update{From: 2, Seq: 9, Op: OpSet, Loc: "slowcell", Ordinal: 8, Defines: true, Value: 3, Label: history.LabelSlow},
		Update{From: 0, Seq: 2, Op: OpSet, Loc: "c", Value: 8, Label: history.LabelCausal, TS: vclock.VC{2, 0, 0}})
	scoped3 := Update{From: 2, Seq: 7, Op: OpSet, Loc: "s", Value: 4, Deps: vclock.NewMatrix(3)}
	scoped3.Deps.Set(0, 2, 7)
	scoped3.Deps.Set(1, 0, 2)
	seeds = append(seeds, scoped3)
	var out [][]byte
	for i := range seeds {
		enc, err := transport.EncodePayload(nil, KindUpdate, &seeds[i])
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
	}
	last := out[len(out)-1]
	out = append(out, last[:len(last)-1])
	// Definitions heavy enough to roll the connection's name arena over: a
	// name longer than a chunk, which is its own allocation, and one most of
	// a chunk long, whole and cut inside its value, after its name was read,
	// which must carve nothing.
	for _, n := range []int{loctab.ArenaChunk + 1, loctab.ArenaChunk * 3 / 4} {
		def := Update{From: 1, Seq: 4, Op: OpSet, Loc: strings.Repeat("n", n), Ordinal: 9, Defines: true, Value: 1}
		enc, err := transport.EncodePayload(nil, KindUpdate, &def)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
	}
	last = out[len(out)-1]
	return append(out, last[:len(last)-1])
}

// v1SCRequests and v1SCReplies are the SC fuzzers' checked-in seeds in the
// first wire format (fixed-width request ids and sender, a u32 length prefix,
// trailing bytes ignored). Every one must fail to decode today.
var (
	v1SCRequests = []string{
		"\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x04cell\x00\x00\x00\x00\x00\x00\x00\x00", // seed1_read
		"\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x02\x01\x00\x00\x00\x01x\xff\xff\xff\xff\xff\xff\xff\xf9",      // seed2_write
	}
	v1SCReplies = []string{
		"\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00*", // seed1
	}
)

// scRequestSeeds and scReplySeeds are the SC fuzzers' structured seeds,
// encoded: a read, a write and a counter op, and two replies.
func scRequestSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, r := range []SCRequest{
		{ReqID: 1, From: 0, Op: 0, Loc: "cell", Value: 0},     // a read
		{ReqID: 9, From: 2, Op: OpSet, Loc: "x", Value: -7},   // a write
		{ReqID: 3, From: 1, Op: OpAdd, Loc: "ctr", Value: 40}, // a counter op
	} {
		enc, err := transport.EncodePayload(nil, KindSCRequest, r)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
	}
	return out
}

func scReplySeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, r := range []SCReply{{ReqID: 1, Value: 42}, {ReqID: 8, Value: -1}} {
		enc, err := transport.EncodePayload(nil, KindSCReply, r)
		if err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		out = append(out, enc)
	}
	return out
}

// TestV1SCPayloadsRejected: the SC owner protocol's first-format payloads,
// each v2 seed with a non-minimal first varint or a trailing byte, and a
// request for an operation no SC access performs fail to decode; each v2 seed
// decodes to a value its encodedSize measures exactly.
func TestV1SCPayloadsRejected(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		v1    []string
		seeds [][]byte
		size  func(any) int
	}{
		{KindSCRequest, v1SCRequests, scRequestSeeds(t), func(v any) int { return v.(SCRequest).encodedSize() }},
		{KindSCReply, v1SCReplies, scReplySeeds(t), func(v any) int { return v.(SCReply).encodedSize() }},
	} {
		inputs := tc.v1
		for _, seed := range tc.seeds {
			v, err := transport.DecodePayload(tc.kind, seed)
			if err != nil || tc.size(v) != len(seed) {
				t.Errorf("%s: seed % x: %+v, %v; encodedSize must be its %d bytes", tc.kind, seed, v, err, len(seed))
			}
			inputs = append(inputs, string(nonMinimal(seed)), string(append(seed, 0)))
		}
		for _, in := range inputs {
			if v, err := transport.DecodePayload(tc.kind, []byte(in)); err == nil {
				t.Errorf("%s: % x decoded to %+v", tc.kind, in, v)
			}
		}
	}
	if v, err := transport.DecodePayload(KindSCRequest, []byte{1, 0, byte(OpAddFloat + 1), 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Errorf("a request for op %d decoded to %+v", OpAddFloat+1, v)
	}
	if _, err := transport.EncodePayload(nil, KindSCRequest, SCRequest{ReqID: 1, Op: OpAddFloat + 1}); err == nil {
		t.Error("encoded a request for an operation no SC access performs")
	}
}

// FuzzSCRequestCodecRoundTrip drives the sc-req wire codec — the SC lattice
// point's owner-protocol request frame — with arbitrary bytes: never panic,
// and every accepted input must re-encode to exactly the bytes it came from.
func FuzzSCRequestCodecRoundTrip(f *testing.F) {
	for _, seed := range scRequestSeeds(f) {
		f.Add(seed)
		f.Add(nonMinimal(seed))
	}
	for _, v1 := range v1SCRequests {
		f.Add([]byte(v1))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := transport.DecodePayload(KindSCRequest, data)
		if err != nil || dec == nil {
			return
		}
		r, ok := dec.(SCRequest)
		if !ok {
			t.Fatalf("decoded %T, want SCRequest", dec)
		}
		if r.encodedSize() != len(data) {
			t.Fatalf("encodedSize %d of a %d-byte request", r.encodedSize(), len(data))
		}
		roundTrip(t, KindSCRequest, r, data)
	})
}

// FuzzSCReplyCodecRoundTrip is the sc-rep analogue.
func FuzzSCReplyCodecRoundTrip(f *testing.F) {
	for _, seed := range scReplySeeds(f) {
		f.Add(seed)
		f.Add(nonMinimal(seed))
	}
	for _, v1 := range v1SCReplies {
		f.Add([]byte(v1))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := transport.DecodePayload(KindSCReply, data)
		if err != nil || dec == nil {
			return
		}
		r, ok := dec.(SCReply)
		if !ok {
			t.Fatalf("decoded %T, want SCReply", dec)
		}
		if r.encodedSize() != len(data) {
			t.Fatalf("encodedSize %d of a %d-byte reply", r.encodedSize(), len(data))
		}
		roundTrip(t, KindSCReply, r, data)
	})
}
