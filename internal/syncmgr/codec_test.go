package syncmgr

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"mixedmem/internal/slab"
	"mixedmem/internal/transport"
)

// sizer is what every synchronisation payload is: something whose size
// method is the length its encoding has.
type sizer interface{ size() int }

// roundTrip encodes payload under kind, checks the encoding against the
// payload's size, and decodes it back.
func roundTrip(t *testing.T, kind string, payload sizer) any {
	t.Helper()
	enc, err := transport.EncodePayload(nil, kind, payload)
	if err != nil {
		t.Fatalf("encode %s: %v", kind, err)
	}
	if len(enc) != payload.size() {
		t.Fatalf("%s: %d bytes encoded, size says %d", kind, len(enc), payload.size())
	}
	dec, err := transport.DecodePayload(kind, enc)
	if err != nil {
		t.Fatalf("decode %s: %v", kind, err)
	}
	return dec
}

func TestLockReqCodecRoundTrip(t *testing.T) {
	r := &lockRequest{Lock: "l[7]", Mode: WriteMode, ReqID: 41}
	if got := roundTrip(t, KindLockReq, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v -> %+v", r, got)
	}
}

func TestLockGrantCodecRoundTrip(t *testing.T) {
	g := &lockGrant{
		ReqID: 12,
		Epoch: 5,
		RelVC: []uint64{9, 0, 3},
		WriteSet: []writeStamp{
			{Loc: "x[0]", From: 1, Seq: 4},
			{Loc: "x[9]", From: 2, Seq: 17},
		},
	}
	if got := roundTrip(t, KindLockGrant, g); !reflect.DeepEqual(got, g) {
		t.Fatalf("round trip: %+v -> %+v", g, got)
	}
	// Empty write-set and nil VC must survive as nil, not empty-but-non-nil.
	minimal := &lockGrant{ReqID: 1}
	if got := roundTrip(t, KindLockGrant, minimal); !reflect.DeepEqual(got, minimal) {
		t.Fatalf("minimal round trip: %+v -> %+v", minimal, got)
	}
}

func TestLockRelCodecRoundTrip(t *testing.T) {
	r := &lockRelease{
		Lock:     "l",
		Mode:     ReadMode,
		Counts:   []uint64{1, 2, 3, 4},
		WriteSet: []writeStamp{{Loc: "y", From: 0, Seq: 8}},
	}
	if got := roundTrip(t, KindLockRel, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v -> %+v", r, got)
	}
}

func TestBarArriveCodecRoundTrip(t *testing.T) {
	a := &barArrive{
		K:       6,
		Sent:    []uint64{10, 0, 2},
		Group:   "phase-a",
		Members: []int{0, 2},
	}
	if got := roundTrip(t, KindBarArrive, a); !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip: %+v -> %+v", a, got)
	}
	minimal := &barArrive{K: 1}
	if got := roundTrip(t, KindBarArrive, minimal); !reflect.DeepEqual(got, minimal) {
		t.Fatalf("minimal round trip: %+v -> %+v", minimal, got)
	}
}

func TestBarReleaseCodecRoundTrip(t *testing.T) {
	r := &barRelease{K: 3, Expected: []uint64{7, 7, 7}, Group: "g"}
	if got := roundTrip(t, KindBarRelease, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v -> %+v", r, got)
	}
}

func TestCodecsRejectWrongTypesAndTruncation(t *testing.T) {
	for _, kind := range syncKinds {
		if _, err := transport.EncodePayload(nil, kind, struct{ X int }{1}); err == nil {
			t.Errorf("%s: encoding a foreign payload type succeeded", kind)
		}
		if _, err := transport.DecodePayload(kind, []byte{0xff}); err == nil {
			t.Errorf("%s: decoding a truncated payload succeeded", kind)
		}
	}
}

// TestSyncCodecsAcceptOnlyRuntimeShapes: what the runtime never sends neither
// encodes nor decodes — an unknown lock mode, members on the global barrier, a
// write-set out of order or naming a location twice, negative rounds and
// epochs — and a payload with bytes after its end does not decode either.
func TestSyncCodecsAcceptOnlyRuntimeShapes(t *testing.T) {
	valid := map[string]sizer{
		KindLockReq:    &lockRequest{Lock: "l", Mode: WriteMode, ReqID: 3},
		KindLockGrant:  &lockGrant{ReqID: 3, WriteSet: []writeStamp{{Loc: "a", From: 1, Seq: 2}, {Loc: "b", From: 0, Seq: 9}}},
		KindLockRel:    &lockRelease{Lock: "l", Mode: ReadMode},
		KindBarArrive:  &barArrive{K: 2, Group: "g", Members: []int{0, 1}},
		KindBarRelease: &barRelease{K: 2, Expected: []uint64{1}},
	}
	for kind, p := range valid {
		enc, err := transport.EncodePayload(nil, kind, p)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := transport.DecodePayload(kind, append(enc, 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded", kind)
		}
	}
	for _, tc := range []struct {
		kind string
		p    any
	}{
		{KindLockReq, &lockRequest{Lock: "l", Mode: 3}},
		{KindLockRel, &lockRelease{Lock: "l"}},
		{KindLockGrant, &lockGrant{Epoch: -1}},
		{KindLockGrant, &lockGrant{WriteSet: []writeStamp{{Loc: "b"}, {Loc: "a"}}}},
		{KindLockRel, &lockRelease{Lock: "l", Mode: WriteMode, WriteSet: []writeStamp{{Loc: "a"}, {Loc: "a", Seq: 1}}}},
		{KindBarArrive, &barArrive{K: 1, Members: []int{0}}},
		{KindBarArrive, &barArrive{K: 1, Group: "g", Members: []int{-1}}},
		{KindBarRelease, &barRelease{K: -1}},
	} {
		if enc, err := transport.EncodePayload(nil, tc.kind, tc.p); err == nil {
			t.Errorf("%s: %+v encoded as % x", tc.kind, tc.p, enc)
		}
	}
	// The same shapes, hand-encoded, must not decode.
	for _, tc := range []struct {
		kind string
		data []byte
	}{
		{KindLockReq, []byte{1, 'l', 3, 1}},                                                  // mode 3
		{KindLockRel, []byte{1, 'l', 0, 0, 0}},                                               // mode 0
		{KindLockGrant, []byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0}},                          // epoch 2^63
		{KindLockGrant, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 'b', 0, 0, 1, 'a', 0, 0}}, // out of order
		{KindLockGrant, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 'a', 0, 0, 1, 'a', 0, 1}}, // twice
		{KindBarArrive, []byte{1, 0, 0, 1, 0}},                                               // members on the global barrier
		{KindBarArrive, []byte{1, 0, 1, 'g', 1, 0xff, 0xff, 0xff, 0xff, 0x0f}},               // member 2^32-1
		{KindBarRelease, append([]byte{1, 0, 0}, 0)},                                         // trailing byte
	} {
		if v, err := transport.DecodePayload(tc.kind, tc.data); err == nil {
			t.Errorf("%s: % x decoded to %+v", tc.kind, tc.data, v)
		}
	}
}

// hostileWriteSetCount and hostileMemberCount are well-formed up to their
// last field, a varint count of 2^32-1 with nothing behind it: a lock grant's
// write-set and a barrier arrival's member list.
var (
	hostileWriteSetCount = []byte{
		1,                      // ReqID
		0, 0, 0, 0, 0, 0, 0, 0, // Epoch
		0,                            // RelVC: none
		0xff, 0xff, 0xff, 0xff, 0x0f, // write-set entries
	}
	hostileMemberCount = []byte{
		1,      // K
		0,      // Sent: none
		1, 'g', // Group "g"
		0xff, 0xff, 0xff, 0xff, 0x0f, // members
	}
)

// TestCodecsBoundCountsOffTheWire: a count that sizes an allocation is checked
// against the bytes that are left before anything is made with it, so a frame
// of a dozen bytes cannot ask for gigabytes.
func TestCodecsBoundCountsOffTheWire(t *testing.T) {
	for _, tc := range []struct {
		kind string
		data []byte
	}{
		{KindLockGrant, hostileWriteSetCount},
		{KindLockRel, []byte{0, byte(WriteMode), 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{KindBarArrive, hostileMemberCount},
		// One entry short: the count says two, the bytes hold one.
		{KindBarArrive, append(append([]byte(nil), hostileMemberCount[:4]...), 2, 7)},
		{KindBarRelease, []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f}},
	} {
		if _, err := transport.DecodePayload(tc.kind, tc.data); !errors.Is(err, transport.ErrTruncated) {
			t.Errorf("%s: decoding a %d-byte payload with an impossible count: %v, want ErrTruncated", tc.kind, len(tc.data), err)
		}
	}
}

// sizeCases are payloads of every kind in the shapes the runtime sends, with
// fields past every varint boundary that matters: large request ids and
// rounds, subset barriers, write-sets.
func sizeCases() []struct {
	kind string
	p    sizer
} {
	big := uint64(1)<<35 + 7
	ws := []writeStamp{{Loc: "a", From: 0, Seq: 1}, {Loc: "col[12]", From: 300, Seq: big}, {Loc: "z", From: 2, Seq: 128}}
	return []struct {
		kind string
		p    sizer
	}{
		{KindLockReq, &lockRequest{Lock: "l", Mode: WriteMode, ReqID: 1}},
		{KindLockReq, &lockRequest{Lock: string(make([]byte, 200)), Mode: ReadMode, ReqID: big}},
		{KindLockGrant, &lockGrant{ReqID: 127, Epoch: 3, RelVC: []uint64{1, 2, 3}}},
		{KindLockGrant, &lockGrant{ReqID: big, Epoch: math.MaxInt, WriteSet: ws}},
		{KindLockRel, &lockRelease{Lock: "l", Mode: WriteMode, Counts: []uint64{math.MaxUint64, 0, 5}}},
		{KindLockRel, &lockRelease{Lock: "col[3]", Mode: WriteMode, WriteSet: ws}},
		{KindLockRel, &lockRelease{Lock: "r", Mode: ReadMode}},
		{KindBarArrive, &barArrive{K: 1, Sent: []uint64{4, 0, 9}}},
		{KindBarArrive, &barArrive{K: int(big), Sent: make([]uint64, 130), Group: "rows", Members: []int{0, 129, 1 << 20}}},
		{KindBarRelease, &barRelease{K: 128, Expected: []uint64{1, 1, 1}}},
		{KindBarRelease, &barRelease{K: 1 << 30, Expected: []uint64{2}, Group: "rows"}},
	}
}

// TestSyncSizeMatchesCodec: for every kind, the size the runtime counts for a
// payload is the length of its encoding, and sizing allocates nothing.
func TestSyncSizeMatchesCodec(t *testing.T) {
	for i, tc := range sizeCases() {
		enc, err := transport.EncodePayload(nil, tc.kind, tc.p)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, tc.kind, err)
		}
		if got := tc.p.size(); got != len(enc) {
			t.Errorf("case %d (%s): size %d, codec writes %d bytes", i, tc.kind, got, len(enc))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = tc.p.size() }); allocs > 0 {
			t.Errorf("case %d (%s): sizing allocates %.1f times", i, tc.kind, allocs)
		}
	}
}

// TestSyncSizeIsScheduleIndependent is the synchronisation twin of dsm's
// TestEncodedSizeIsScheduleIndependent: payloads that differ only in what the
// schedule decides — the entries of the count vectors, and a grant's epoch —
// have the same size, on the wire and in size.
func TestSyncSizeIsScheduleIndependent(t *testing.T) {
	sizes := func(v uint64) []int {
		vec := []uint64{v, v * 3, v ^ 1<<40}
		out := []int{}
		for _, p := range []sizer{
			&lockGrant{ReqID: 9, Epoch: int(v >> 1), RelVC: vec},
			&lockRelease{Lock: "l", Mode: WriteMode, Counts: vec},
			&barArrive{K: 4, Sent: vec},
			&barArrive{K: 4, Sent: vec, Group: "g", Members: []int{0, 2}},
			&barRelease{K: 4, Expected: vec},
		} {
			out = append(out, p.size())
		}
		return out
	}
	if a, b := sizes(0), sizes(math.MaxUint64-12345); !reflect.DeepEqual(a, b) {
		t.Fatalf("sizes (grant, release, arrival, group arrival, barrier release) moved with the counts: %v vs %v", a, b)
	}
}

// TestSyncConnDecodeAllocFloor pins what a connection's decoder allocates per
// payload once it has seen the names: nothing of its own. The payload, its
// count vector, member list or write-set come from slabs, one allocation each
// per slab.Size, and the names from the cache.
func TestSyncConnDecodeAllocFloor(t *testing.T) {
	for _, tc := range []struct {
		kind string
		p    sizer
	}{
		{KindLockReq, &lockRequest{Lock: "col[3]", Mode: WriteMode, ReqID: 300}},
		{KindLockGrant, &lockGrant{ReqID: 300, Epoch: 7, RelVC: []uint64{1, 2, 3}}},
		{KindLockGrant, &lockGrant{ReqID: 300, Epoch: 7, WriteSet: []writeStamp{{Loc: "a", From: 1, Seq: 2}, {Loc: "b", From: 1, Seq: 3}}}},
		{KindLockRel, &lockRelease{Lock: "col[3]", Mode: WriteMode, Counts: []uint64{1, 2, 3}}},
		{KindLockRel, &lockRelease{Lock: "col[3]", Mode: WriteMode, WriteSet: []writeStamp{{Loc: "a", From: 1, Seq: 2}}}},
		{KindBarArrive, &barArrive{K: 9, Sent: []uint64{1, 2, 3}}},
		{KindBarArrive, &barArrive{K: 9, Sent: []uint64{1, 2, 3}, Group: "rows", Members: []int{0, 2}}},
		{KindBarRelease, &barRelease{K: 9, Expected: []uint64{1, 2, 3}, Group: "rows"}},
	} {
		wire, err := transport.EncodePayload(nil, tc.kind, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		conn := new(transport.ConnDecoder)
		decodeOne := func() any {
			_, got, err := conn.DecodeKindPayload([]byte(tc.kind), wire)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		// The first decode warms the name cache.
		if got := decodeOne(); !reflect.DeepEqual(got, tc.p) {
			t.Fatalf("%s: decoded %+v, want %+v", tc.kind, got, tc.p)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < slab.Size; i++ {
				decodeOne()
			}
		})
		if perDecode := allocs / slab.Size; perDecode > 0.05 {
			t.Errorf("connection %s decode of %+v: %.3f allocs/op, want <= 0.05 (slabs only)", tc.kind, tc.p, perDecode)
		}
	}
}

// reencodes fails unless data, which decoded to dec, is exactly what encoding
// dec writes, and dec's size is its length.
func reencodes(t *testing.T, kind string, dec any, data []byte) {
	t.Helper()
	enc, err := transport.EncodePayload(nil, kind, dec)
	if err != nil {
		t.Fatalf("re-encoding a decoded %s failed: %v", kind, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("%s decoded from % x re-encodes as % x", kind, data, enc)
	}
	if s := dec.(sizer).size(); s != len(data) {
		t.Fatalf("%s decoded from %d bytes has size %d", kind, len(data), s)
	}
}
