package syncmgr

import (
	"reflect"
	"testing"

	"mixedmem/internal/transport"
)

// syncKinds are the five payload kinds with a codec, indexed by the fuzzer's
// first argument.
var syncKinds = []string{KindLockReq, KindLockGrant, KindLockRel, KindBarArrive, KindBarRelease}

// FuzzSyncCodecRoundTrip feeds arbitrary bytes to each synchronisation codec.
// Whatever a codec accepts must come back as the pointer form the handlers
// assert on, must re-encode, and must decode again to the same value; whatever
// it refuses it must refuse with an error, not a panic or an allocation sized
// by the input's own claims (the corpus under testdata holds the two counts
// that used to do that).
func FuzzSyncCodecRoundTrip(f *testing.F) {
	seeds := []any{
		&lockRequest{Lock: "l[7]", Mode: WriteMode, Client: 3, ReqID: 41},
		&lockGrant{Lock: "mat", ReqID: 12, Epoch: 5, RelVC: []uint64{9, 0, 3},
			WriteSet: map[string]writeStamp{"x[0]": {From: 1, Seq: 4}}},
		&lockRelease{Lock: "l", Mode: ReadMode, Client: 2, Counts: []uint64{1, 2, 3, 4},
			WriteSet: map[string]writeStamp{"y": {From: 0, Seq: 8}}},
		&barArrive{Client: 1, K: 6, Sent: []uint64{10, 0, 2}, Group: "phase-a", Members: []int{0, 2}},
		&barRelease{K: 3, Expected: []uint64{7, 7, 7}, Group: "g"},
	}
	for i, seed := range seeds {
		enc, err := transport.EncodePayload(nil, syncKinds[i], seed)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(uint8(i), enc)
	}
	f.Add(uint8(1), hostileWriteSetCount)
	f.Add(uint8(3), hostileMemberCount)

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		kind := syncKinds[int(which)%len(syncKinds)]
		dec, err := transport.DecodePayload(kind, data)
		if err != nil || dec == nil {
			return
		}
		if want := reflect.TypeOf(seeds[int(which)%len(syncKinds)]); reflect.TypeOf(dec) != want {
			t.Fatalf("%s decoded to %T, want %v", kind, dec, want)
		}
		enc, err := transport.EncodePayload(nil, kind, dec)
		if err != nil {
			t.Fatalf("re-encoding a decoded %s failed: %v", kind, err)
		}
		dec2, err := transport.DecodePayload(kind, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded %s failed: %v", kind, err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("%s round trip changed the payload:\n first  %+v\n second %+v", kind, dec, dec2)
		}
	})
}
