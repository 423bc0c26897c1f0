package dsm

import (
	"reflect"
	"testing"

	"mixedmem/internal/history"
	"mixedmem/internal/transport"
	"mixedmem/internal/vclock"
)

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
	slabs := func() [5]int {
		return [5]int{len(conn.upd), len(conn.batch), len(conn.ts), len(conn.mx.rows), len(conn.mx.words)}
	}
	before := slabs()
	got, err := decode(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("connection decoder: error %v, stateless decode: %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("connection decoder disagrees with the stateless decode:\n%+v\n%+v", got, want)
	}
	if after := slabs(); err != nil && after != before {
		t.Fatalf("a failed decode consumed slab (updates, batches, timestamp words, matrix rows, matrix words): %v -> %v",
			before, after)
	}
	return want, wantErr
}

// FuzzBatchCodecRoundTrip drives the KindUpdateBatch wire codec with
// arbitrary bytes: decoding must never panic, and any batch that decodes must
// re-encode and re-decode to the same value (the decoder is the wire contract
// both the sim and TCP transports rely on). It is differential: one
// long-lived connection decoder is fed every input in sequence and must agree
// with the stateless decode on each (decodeBoth).
func FuzzBatchCodecRoundTrip(f *testing.F) {
	seedBatches := []*UpdateBatch{
		{From: 0, FirstSeq: 1, Count: 1, Updates: []Update{
			{From: 0, Seq: 1, Op: OpSet, Loc: "x", Value: 7},
		}},
		{From: 2, FirstSeq: 4, Count: 3, Updates: []Update{
			{From: 2, Seq: 4, Op: OpSet, Loc: "a", Value: -1, TS: vclock.VC{4, 0, 9}},
			{From: 2, Seq: 6, Op: OpAdd, Loc: "b", Value: 2, TS: vclock.VC{6, 0, 9}},
		}},
	}
	scoped := &UpdateBatch{From: 1, FirstSeq: 2, Count: 2, Deps: vclock.NewMatrix(2),
		Updates: []Update{
			{From: 1, Seq: 2, Op: OpSet, Loc: "s", Value: 5},
			{From: 1, Seq: 3, Op: OpAddFloat, Loc: "t", Value: 1},
		}}
	scoped.Deps.Set(0, 1, 3)
	seedBatches = append(seedBatches, scoped,
		// An all-Slow batch: timestamp-elided entries only.
		&UpdateBatch{From: 2, FirstSeq: 7, Count: 2, Updates: []Update{
			{From: 2, Seq: 7, Op: OpSet, Loc: "cell", Value: 1, Label: history.LabelSlow},
			{From: 2, Seq: 8, Op: OpSet, Loc: "cell", Value: 2, Label: history.LabelSlow},
		}})
	for _, b := range seedBatches {
		enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// A scoped batch cut inside its last entry, after the matrix was carved:
	// the connection decoder must give the matrix back.
	cut, err := transport.EncodePayload(nil, KindUpdateBatch, scoped)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(cut[:len(cut)-1])
	// A batch mixing obligations — elided entries around causal ones under
	// one matrix — whole, and cut inside its last entry.
	mixed := &UpdateBatch{From: 1, FirstSeq: 2, Count: 5, Deps: vclock.NewMatrix(3),
		Updates: []Update{
			{From: 1, Seq: 2, Op: OpAdd, Loc: "ctr", Value: 1, elided: true},
			{From: 1, Seq: 4, Op: OpSet, Loc: "s", Value: 5},
			{From: 1, Seq: 5, Op: OpAdd, Loc: "ctr", Value: 1, elided: true},
			{From: 1, Seq: 6, Op: OpSet, Loc: "t", Value: 6},
		}}
	mixed.Deps.Set(2, 1, 6)
	whole, err := transport.EncodePayload(nil, KindUpdateBatch, mixed)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3])

	conn := new(connDecoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBoth(t, KindUpdateBatch, conn, conn.decodeBatch, data)
		if err != nil || dec == nil {
			return // rejected cleanly (or empty input): that is the contract
		}
		b, ok := dec.(*UpdateBatch)
		if !ok {
			t.Fatalf("decoded %T, want *UpdateBatch", dec)
		}
		enc, err := transport.EncodePayload(nil, KindUpdateBatch, b)
		if err != nil {
			t.Fatalf("re-encoding a decoded batch failed: %v", err)
		}
		dec2, err := transport.DecodePayload(KindUpdateBatch, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded batch failed: %v", err)
		}
		// Decode ignores trailing garbage, so compare value-to-value rather
		// than bytes-to-bytes.
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("round trip changed the batch:\n%+v\n%+v", dec, dec2)
		}
	})
}

// FuzzUpdateCodecRoundTrip is the singleton-update analogue: the KindUpdate
// decoder must never panic and must round-trip every accepted input, and a
// long-lived connection decoder must agree with the stateless one throughout.
func FuzzUpdateCodecRoundTrip(f *testing.F) {
	seeds := []Update{
		{From: 0, Seq: 1, Op: OpSet, Loc: "y", Value: 9},
		{From: 1, Seq: 3, Op: OpAdd, Loc: "ctr", Value: -4, TS: vclock.VC{1, 3}},
	}
	scoped := Update{From: 1, Seq: 5, Op: OpSet, Loc: "s", Value: 2, Deps: vclock.NewMatrix(2)}
	scoped.Deps.Set(1, 1, 5)
	seeds = append(seeds, scoped,
		// Label-tagged frames: a timestamp-elided slow update and a causal
		// one with a vector timestamp.
		Update{From: 2, Seq: 9, Op: OpSet, Loc: "slowcell", Value: 3, Label: history.LabelSlow},
		Update{From: 0, Seq: 2, Op: OpSet, Loc: "c", Value: 8, Label: history.LabelCausal, TS: vclock.VC{2, 0, 0}})
	for i := range seeds {
		enc, err := transport.EncodePayload(nil, KindUpdate, &seeds[i])
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	// A scoped update, whose matrix the connection decoder carves, followed by
	// its copy cut inside the matrix, which must take nothing.
	scoped3 := Update{From: 2, Seq: 7, Op: OpSet, Loc: "s", Value: 4, Deps: vclock.NewMatrix(3)}
	scoped3.Deps.Set(0, 2, 7)
	scoped3.Deps.Set(1, 0, 2)
	enc, err := transport.EncodePayload(nil, KindUpdate, &scoped3)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-1])

	conn := new(connDecoder)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeBoth(t, KindUpdate, conn, conn.decodeUpdate, data)
		if err != nil || dec == nil {
			return
		}
		u, ok := dec.(*Update)
		if !ok {
			t.Fatalf("decoded %T, want *Update", dec)
		}
		enc, err := transport.EncodePayload(nil, KindUpdate, u)
		if err != nil {
			t.Fatalf("re-encoding a decoded update failed: %v", err)
		}
		dec2, err := transport.DecodePayload(KindUpdate, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded update failed: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("round trip changed the update:\n%+v\n%+v", dec, dec2)
		}
	})
}

// FuzzSCRequestCodecRoundTrip drives the sc-req wire codec — the SC lattice
// point's owner-protocol request frame — with arbitrary bytes: never panic,
// and every accepted input must round-trip.
func FuzzSCRequestCodecRoundTrip(f *testing.F) {
	seeds := []SCRequest{
		{ReqID: 1, From: 0, Op: 0, Loc: "cell", Value: 0},     // a read
		{ReqID: 9, From: 2, Op: OpSet, Loc: "x", Value: -7},   // a write
		{ReqID: 3, From: 1, Op: OpAdd, Loc: "ctr", Value: 40}, // a counter op
	}
	for _, r := range seeds {
		enc, err := transport.EncodePayload(nil, KindSCRequest, r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
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
		enc, err := transport.EncodePayload(nil, KindSCRequest, r)
		if err != nil {
			t.Fatalf("re-encoding a decoded sc-req failed: %v", err)
		}
		dec2, err := transport.DecodePayload(KindSCRequest, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded sc-req failed: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", dec, dec2)
		}
	})
}

// FuzzSCReplyCodecRoundTrip is the sc-rep analogue.
func FuzzSCReplyCodecRoundTrip(f *testing.F) {
	for _, r := range []SCReply{{ReqID: 1, Value: 42}, {ReqID: 8, Value: -1}} {
		enc, err := transport.EncodePayload(nil, KindSCReply, r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(enc)
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
		enc, err := transport.EncodePayload(nil, KindSCReply, r)
		if err != nil {
			t.Fatalf("re-encoding a decoded sc-rep failed: %v", err)
		}
		dec2, err := transport.DecodePayload(KindSCReply, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded sc-rep failed: %v", err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("round trip changed the reply:\n%+v\n%+v", dec, dec2)
		}
	})
}
