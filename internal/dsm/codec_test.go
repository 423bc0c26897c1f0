package dsm

import (
	"testing"

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
	u := Update{From: 2, Seq: 99, Op: OpSet, Loc: "x[3]", Value: -12345, TS: ts}
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
	u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, PrevSeq: 5, Deps: deps}
	got := roundTripUpdate(t, u)
	if got.PrevSeq != 5 || got.Deps.Len() != 3 {
		t.Fatalf("scoped metadata changed: prev=%d deps=%v", got.PrevSeq, got.Deps)
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
	b := UpdateBatch{
		From: 0, FirstSeq: 3, Count: 5, PrevSeq: 2, Deps: deps,
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
	got := dec.(UpdateBatch)
	if got.PrevSeq != 2 || got.Deps.Len() != 2 || got.Deps.Get(1, 0) != 7 {
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
// costs the same bytes in a 4-process cluster and a 256-process one.
func TestUpdateCodecWireSizeIgnoresIdlePeers(t *testing.T) {
	encodedLen := func(n int) int {
		deps := vclock.NewMatrix(n)
		deps.Set(0, 1, 4)
		deps.Set(1, 2, 9)
		u := Update{From: 1, Seq: 9, Op: OpSet, Loc: "s", Value: 3, PrevSeq: 5, Deps: deps}
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
	small, big := encodedLen(4), encodedLen(256)
	if small != big {
		t.Fatalf("wire size grew from %d to %d bytes with 252 idle peers", small, big)
	}
}

// TestDecodeDepsRejectsMalformedIndices checks the sparse section's
// validation: out-of-range, unsorted, or over-counted index lists fail
// cleanly instead of corrupting the matrix.
func TestDecodeDepsRejectsMalformedIndices(t *testing.T) {
	base := Update{From: 0, Seq: 1, Op: OpSet, Loc: "s", Value: 1, PrevSeq: 0,
		Deps: vclock.NewMatrix(3)}
	base.Deps.Set(0, 2, 1)
	enc, err := transport.EncodePayload(nil, KindUpdate, &base)
	if err != nil {
		t.Fatal(err)
	}
	// The deps section trails the payload: depsN(4) | PrevSeq(8) | nAct(4) | ids | sub.
	sub := 2 * 2 * 8
	idsOff := len(enc) - sub - 2*4
	corrupt := func(mutate func([]byte)) error {
		bad := append([]byte(nil), enc...)
		mutate(bad)
		_, err := transport.DecodePayload(KindUpdate, bad)
		return err
	}
	if err := corrupt(func(b []byte) { b[idsOff+3] = 7 }); err == nil {
		t.Error("index beyond depsN decoded successfully")
	}
	if err := corrupt(func(b []byte) { b[idsOff+3], b[idsOff+7] = 2, 0 }); err == nil {
		t.Error("descending index list decoded successfully")
	}
	if err := corrupt(func(b []byte) { b[idsOff-1] = 200 }); err == nil {
		t.Error("nAct larger than depsN decoded successfully")
	}
}
