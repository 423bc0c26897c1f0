package syncmgr

import (
	"reflect"
	"testing"

	"mixedmem/internal/transport"
)

// syncKinds are the five payload kinds with a codec, indexed by the fuzzer's
// first argument.
var syncKinds = []string{KindLockReq, KindLockGrant, KindLockRel, KindBarArrive, KindBarRelease}

// syncSeeds are the fuzzer's structured seeds, one per kind in syncKinds'
// order: the values the checked-in corpus encodes.
func syncSeeds() []sizer {
	return []sizer{
		&lockRequest{Lock: "l12", Mode: WriteMode, ReqID: 7},
		&lockGrant{ReqID: 7, Epoch: 3, RelVC: []uint64{4, 0, 9}},
		&lockRelease{Lock: "l12", Mode: WriteMode, WriteSet: []writeStamp{{Loc: "L3_1", From: 2, Seq: 11}}},
		&barArrive{K: 2, Sent: []uint64{5, 0, 6}, Group: "rows", Members: []int{1, 2}},
		&barRelease{K: 2, Expected: []uint64{1, 0, 6}},
	}
}

// v1Sync holds, per kind, the payloads of the first wire format (fixed-width
// integers, uint32 count prefixes, the sender's id, a grant's lock name): the
// checked-in corpus's five seeds and its two hostile counts. Every one must
// fail to decode today, so that a peer still speaking the old format is
// refused rather than misread.
var v1Sync = map[string][]string{
	KindLockReq: {
		"\x00\x00\x00\x03l12\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\a",
	},
	KindLockGrant: {
		"\x00\x00\x00\x03l12\x00\x00\x00\x00\x00\x00\x00\a\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\t\x00\x00\x00\x00",
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff",
	},
	KindLockRel: {
		"\x00\x00\x00\x03l12\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x04L3_1\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\v",
	},
	KindBarArrive: {
		"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x04rows\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x02",
		"\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff",
	},
	KindBarRelease: {
		"\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00",
	},
}

// nonMinimal returns enc with its first varint, a one-byte one, stretched to
// two bytes: the same value, not in its one accepted encoding.
func nonMinimal(enc []byte) []byte {
	return append([]byte{enc[0] | 0x80, 0}, enc[1:]...)
}

// TestV1SyncPayloadsRejected: the payloads of the first wire format and each
// seed with a non-minimal first varint fail to decode, statelessly and
// through a connection's decoder.
func TestV1SyncPayloadsRejected(t *testing.T) {
	conn := new(transport.ConnDecoder)
	for i, seed := range syncSeeds() {
		kind := syncKinds[i]
		enc, err := transport.EncodePayload(nil, kind, seed)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, in := range append(v1Sync[kind], string(nonMinimal(enc))) {
			if v, err := transport.DecodePayload(kind, []byte(in)); err == nil {
				t.Errorf("%s: % x decoded to %+v", kind, in, v)
			}
			if _, _, err := conn.DecodeKindPayload([]byte(kind), []byte(in)); err == nil {
				t.Errorf("%s: % x decoded through a connection", kind, in)
			}
		}
	}
}

// FuzzSyncCodecRoundTrip feeds arbitrary bytes to each synchronisation codec.
// Whatever a codec accepts must come back as the pointer form the handlers
// assert on, from a connection's decoder exactly as from the stateless one,
// and must re-encode to the bytes it came from; whatever it refuses, both must
// refuse with the same error, not a panic or an allocation sized by the
// input's own claims.
func FuzzSyncCodecRoundTrip(f *testing.F) {
	seeds := syncSeeds()
	for i, seed := range seeds {
		enc, err := transport.EncodePayload(nil, syncKinds[i], seed)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(uint8(i), enc)
		f.Add(uint8(i), nonMinimal(enc))
	}
	f.Add(uint8(1), hostileWriteSetCount)
	f.Add(uint8(3), hostileMemberCount)

	conn := new(transport.ConnDecoder)
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		i := int(which) % len(syncKinds)
		kind := syncKinds[i]
		dec, err := transport.DecodePayload(kind, data)
		if len(data) > 0 {
			_, got, connErr := conn.DecodeKindPayload([]byte(kind), data)
			if (err == nil) != (connErr == nil) || (err != nil && err.Error() != connErr.Error()) {
				t.Fatalf("%s: connection decoder error %v, stateless %v", kind, connErr, err)
			}
			if !reflect.DeepEqual(got, dec) {
				t.Fatalf("%s: connection decoder disagrees with the stateless decode:\n%+v\n%+v", kind, got, dec)
			}
		}
		if err != nil || dec == nil {
			return
		}
		if want := reflect.TypeOf(seeds[i]); reflect.TypeOf(dec) != want {
			t.Fatalf("%s decoded to %T, want %v", kind, dec, want)
		}
		reencodes(t, kind, dec, data)
	})
}
