package obs

import (
	"reflect"
	"testing"
)

// FuzzSnapshotCodecRoundTrip drives the trace snapshot wire codec — the
// format the fleet drain ships through the DSM and `mixedtrace` reads —
// with arbitrary bytes: decoding must never panic, and any snapshot that
// decodes must re-encode and re-decode to the same value. Same pattern as
// the dsm and tcp codec fuzzers.
func FuzzSnapshotCodecRoundTrip(f *testing.F) {
	full := sampleSnapshot()
	empty := &Snapshot{Tag: "", Node: 0, Capacity: 64}
	wrapped := &Snapshot{Tag: "t", Node: 1, Capacity: 64, Recorded: 100, Dropped: 36,
		Locs: []string{"x"},
		Events: []Event{
			{Index: 99, Time: -5, Type: EvBarrierExit, Label: 255, Peer: 65535,
				Loc: NoLoc, Seq: 1 << 60, A: ^uint64(0), B: 7},
		}}
	for _, s := range []*Snapshot{full, empty, wrapped} {
		f.Add(AppendSnapshot(nil, s))
	}
	f.Add([]byte{})
	f.Add([]byte{'M', 'X', 'T', 'R', 1, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, _, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected cleanly: that is the contract
		}
		enc := AppendSnapshot(nil, dec)
		dec2, n, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded snapshot failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n, len(enc))
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", dec, dec2)
		}
	})
}
