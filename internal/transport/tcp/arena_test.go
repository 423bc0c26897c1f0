package tcp_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mixedmem/internal/dsm"
	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"
)

// TestConnNameArenaOutlivesChunks: a connection carves the names of the
// definitions it decodes from an append-only arena of chunks. Definitions —
// single updates, batches of three, now and then a name longer than a chunk
// and a payload cut short — are decoded on one connection's decoder, the way a
// connection's reader decodes them, until the arena has rolled over several
// chunks. Each decoded value goes to another goroutine at once, as the inbox
// hands it to the receive loop, which reads its names while later ones are
// carved. Every value must deep-equal the stateless decode of the same
// payload, errors included, and every name decoded earlier must still read
// back byte for byte at the end, after a collection.
func TestConnNameArenaOutlivesChunks(t *testing.T) {
	type decoded struct {
		want []string
		got  any
	}
	locs := func(v any) []string {
		switch p := v.(type) {
		case *dsm.Update:
			return []string{p.Loc}
		case *dsm.UpdateBatch:
			var names []string
			for _, u := range p.Updates {
				names = append(names, u.Loc)
			}
			return names
		}
		return nil
	}
	// A few values in flight, as an inbox burst holds several: the decoder
	// runs ahead of the reader.
	handoff := make(chan decoded, 16)
	done := make(chan struct{})
	var kept []decoded
	go func() {
		defer close(done)
		for d := range handoff {
			if got := locs(d.got); !slices.Equal(got, d.want) {
				t.Errorf("names %q read back as %q on arrival", d.want, got)
			}
			kept = append(kept, d)
		}
	}()

	var dec transport.ConnDecoder
	carved := 0
	seq := uint64(0)
	def := func(name string) dsm.Update {
		seq++
		return dsm.Update{From: 1, Seq: seq, Op: dsm.OpSet, Loc: name, Ordinal: uint32(seq), Defines: true, Value: int64(seq)}
	}
	for i := 0; carved < 6*loctab.ArenaChunk; i++ {
		name := func(k int) string { return fmt.Sprintf("%d.%d/%s", i, k, strings.Repeat("n", (i*37+k)%300)) }
		kind, want := dsm.KindUpdate, []string{name(0)}
		if i%50 == 49 {
			want[0] += strings.Repeat("L", loctab.ArenaChunk)
		}
		var payload any
		if i%7 == 3 {
			kind, want = dsm.KindUpdateBatch, []string{name(0), name(1), name(2)}
			b := &dsm.UpdateBatch{From: 1, FirstSeq: seq + 1}
			for _, n := range want {
				b.Updates = append(b.Updates, def(n))
			}
			payload = b
		} else {
			u := def(want[0])
			payload = &u
		}
		wire, err := transport.EncodePayload(nil, kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{wire[:len(wire)-1], wire} {
			_, got, err := dec.DecodeKindPayload([]byte(kind), data)
			stateless, wantErr := transport.DecodePayload(kind, data)
			if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, stateless) {
				t.Fatalf("payload %d: the connection decoded %+v (error %v), the stateless decode %+v (error %v)", i, got, err, stateless, wantErr)
			}
			if err == nil {
				handoff <- decoded{want, got}
			}
		}
		for _, n := range want {
			carved += len(n)
		}
	}
	close(handoff)
	<-done
	runtime.GC()
	for _, d := range kept {
		if got := locs(d.got); !slices.Equal(got, d.want) {
			t.Fatalf("names %q read back as %q after %d bytes of later names", d.want, got, carved)
		}
	}
}
