package syncmgr

import (
	"errors"
	"reflect"
	"testing"

	"mixedmem/internal/transport"
)

// roundTrip encodes payload under kind and decodes it back.
func roundTrip(t *testing.T, kind string, payload any) any {
	t.Helper()
	enc, err := transport.EncodePayload(nil, kind, payload)
	if err != nil {
		t.Fatalf("encode %s: %v", kind, err)
	}
	dec, err := transport.DecodePayload(kind, enc)
	if err != nil {
		t.Fatalf("decode %s: %v", kind, err)
	}
	return dec
}

func TestLockReqCodecRoundTrip(t *testing.T) {
	r := &lockRequest{Lock: "l[7]", Mode: WriteMode, Client: 3, ReqID: 41}
	if got := roundTrip(t, KindLockReq, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v -> %+v", r, got)
	}
}

func TestLockGrantCodecRoundTrip(t *testing.T) {
	g := &lockGrant{
		Lock:  "mat",
		ReqID: 12,
		Epoch: 5,
		RelVC: []uint64{9, 0, 3},
		WriteSet: map[string]writeStamp{
			"x[0]": {From: 1, Seq: 4},
			"x[9]": {From: 2, Seq: 17},
		},
	}
	if got := roundTrip(t, KindLockGrant, g); !reflect.DeepEqual(got, g) {
		t.Fatalf("round trip: %+v -> %+v", g, got)
	}
	// Empty write-set and nil VC must survive as nil, not empty-but-non-nil.
	minimal := &lockGrant{Lock: "m"}
	if got := roundTrip(t, KindLockGrant, minimal); !reflect.DeepEqual(got, minimal) {
		t.Fatalf("minimal round trip: %+v -> %+v", minimal, got)
	}
}

func TestLockRelCodecRoundTrip(t *testing.T) {
	r := &lockRelease{
		Lock:     "l",
		Mode:     ReadMode,
		Client:   2,
		Counts:   []uint64{1, 2, 3, 4},
		WriteSet: map[string]writeStamp{"y": {From: 0, Seq: 8}},
	}
	if got := roundTrip(t, KindLockRel, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip: %+v -> %+v", r, got)
	}
}

func TestBarArriveCodecRoundTrip(t *testing.T) {
	a := &barArrive{
		Client:  1,
		K:       6,
		Sent:    []uint64{10, 0, 2},
		Group:   "phase-a",
		Members: []int{0, 2},
	}
	if got := roundTrip(t, KindBarArrive, a); !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip: %+v -> %+v", a, got)
	}
	minimal := &barArrive{Client: 0, K: 1}
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
	for _, kind := range []string{KindLockReq, KindLockGrant, KindLockRel, KindBarArrive, KindBarRelease} {
		if _, err := transport.EncodePayload(nil, kind, struct{ X int }{1}); err == nil {
			t.Errorf("%s: encoding a foreign payload type succeeded", kind)
		}
		if _, err := transport.DecodePayload(kind, []byte{0xff}); err == nil {
			t.Errorf("%s: decoding a truncated payload succeeded", kind)
		}
	}
}

// hostileWriteSetCount and hostileMemberCount are well-formed up to their
// last field, a uint32 count of 2^32-1 with nothing behind it: a lock grant's
// write-set and a barrier arrival's member list.
var (
	hostileWriteSetCount = []byte{
		0, 0, 0, 0, // Lock ""
		0, 0, 0, 0, 0, 0, 0, 1, // ReqID
		0, 0, 0, 0, 0, 0, 0, 0, // Epoch
		0, 0, 0, 0, // RelVC: none
		0xff, 0xff, 0xff, 0xff, // write-set entries
	}
	hostileMemberCount = []byte{
		0, 0, 0, 1, // Client
		0, 0, 0, 0, 0, 0, 0, 1, // K
		0, 0, 0, 0, // Sent: none
		0, 0, 0, 0, // Group ""
		0xff, 0xff, 0xff, 0xff, // members
	}
)

// TestCodecsBoundCountsOffTheWire: a count that sizes an allocation is checked
// against the bytes that are left before anything is made with it, so a frame
// of thirty bytes cannot ask for gigabytes.
func TestCodecsBoundCountsOffTheWire(t *testing.T) {
	for _, tc := range []struct {
		kind string
		data []byte
	}{
		{KindLockGrant, hostileWriteSetCount},
		{KindLockRel, append([]byte{0, 0, 0, 0, byte(WriteMode), 0, 0, 0, 1, 0, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff)},
		{KindBarArrive, hostileMemberCount},
		// One entry short: the count says two, the bytes hold one.
		{KindBarArrive, append(append([]byte(nil), hostileMemberCount[:20]...), 0, 0, 0, 2, 0, 0, 0, 7)},
	} {
		if _, err := transport.DecodePayload(tc.kind, tc.data); !errors.Is(err, transport.ErrTruncated) {
			t.Errorf("%s: decoding a %d-byte payload with an impossible count: %v, want ErrTruncated", tc.kind, len(tc.data), err)
		}
	}
}
