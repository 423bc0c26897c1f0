package dsm

import (
	"fmt"
	"strconv"
	"testing"

	"mixedmem/internal/loctab"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
	"mixedmem/internal/vclock"
)

// The edges of location naming: a sender names a location on the wire only in
// its first update of it, and every receiver resolves later updates' ordinals
// through its reference table for that sender (deliver.go).

// TestRefTableHolesAndBounds: a table holds definitions only, so a receiver
// that sees a sender's ordinals with holes resolves each one it was given and
// none it was not, whether the ordinal lies below the table's length or past
// it; it admits a definition only above the last one it holds and below the
// Seq that carries it; and it grows in chunks — refChunk, then four times the
// last — with the definitions, never with an ordinal.
func TestRefTableHolesAndBounds(t *testing.T) {
	var tab loctab.Table[cell]
	entry := func(loc string) *loctab.Entry[cell] {
		e, _ := tab.InsertEntry(loctab.Hash(loc), loc, cell{})
		return e
	}
	var rt refTable
	locs := map[uint32]string{1: "p", 2: "q", 5: "r", 9: "s"}
	for _, ord := range []uint32{1, 2, 5, 9} {
		if !rt.admits(ord, uint64(ord)+1) {
			t.Fatalf("ordinal %d first written by update %d refused", ord, ord+1)
		}
		rt.add(ord, entry(locs[ord]))
	}
	for ord := uint32(0); ord < 12; ord++ {
		got, want := rt.find(ord), locs[ord]
		if (got == nil) != (want == "") || got != nil && got.Key() != want {
			t.Errorf("find(%d) = %v, want %q", ord, got, want)
		}
	}
	for _, tc := range []struct {
		ord uint32
		seq uint64
	}{
		{9, 20},            // a second definition of the last ordinal
		{3, 20},            // below the last
		{10, 10}, {11, 10}, // not below its Seq
	} {
		if rt.admits(tc.ord, tc.seq) {
			t.Errorf("definition of ordinal %d by update %d admitted after ordinal 9", tc.ord, tc.seq)
		}
	}
	// The largest ordinal there is, defined by an update far enough along to
	// carry it, takes one slot.
	if !rt.admits(1<<32-1, 1<<40) {
		t.Fatal("the largest ordinal refused")
	}
	rt.add(1<<32-1, entry("last"))
	if len(rt.defs) != 5 || cap(rt.defs) != refChunk || rt.find(1<<32-1).Key() != "last" {
		t.Fatalf("after the largest ordinal: %d definitions, capacity %d, want 5 and %d", len(rt.defs), cap(rt.defs), refChunk)
	}
	var dense refTable
	for ord := uint32(0); ord <= refChunk; ord++ {
		dense.add(ord, entry("d"+strconv.Itoa(int(ord))))
	}
	if cap(dense.defs) != 4*refChunk || dense.find(refChunk).Key() != "d"+strconv.Itoa(refChunk) {
		t.Fatalf("%d definitions: capacity %d, want %d", refChunk+1, cap(dense.defs), 4*refChunk)
	}
}

// TestHostileDefinitionsRefused: a peer's definition that breaks the order in
// which a sender gives ordinals out — an ordinal not below its update's Seq, or
// not above the sender's last definition — is refused: its update counts in
// MalformedUpdates, applies to neither view, inserts no cell and takes no
// slot, and its sequence number still settles. A batch holding one applies
// none of its entries, though its admitted definitions stand. A well-formed
// definition with the largest ordinal costs one slot; without a scope its
// sequence number skips ahead of the sender's run, so its update is malformed
// too, and the sender's stream settles there.
func TestHostileDefinitionsRefused(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewNode(Config{ID: 1, N: 2, Transport: f, PRAMOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Close()
		r.Close()
	}()
	def := func(seq uint64, ord uint32, loc string) *Update {
		return &Update{From: 0, Seq: seq, Op: OpSet, Loc: loc, Ordinal: ord, Defines: true, Value: int64(seq)}
	}
	r.applyRemote(def(1, 0, "ok"))
	r.applyRemote(def(2, 2, "ahead-of-its-seq"))
	r.applyRemote(def(3, 0, "again"))
	r.applyBatch(&UpdateBatch{From: 0, FirstSeq: 4, Count: 2, Updates: []Update{
		*def(4, 3, "batched"), *def(5, 1, "behind-in-its-batch"),
	}})
	// A reference ahead of its definition, and a definition of an ordinal
	// the sender already named, in one batch: neither may land anywhere.
	r.applyBatch(&UpdateBatch{From: 0, FirstSeq: 6, Count: 3, Updates: []Update{
		{From: 0, Seq: 6, Op: OpSet, Ordinal: 4, Value: 6}, *def(7, 4, "late"), *def(7, 0, "ok-again"),
	}})
	r.applyRemote(def(1<<40, 1<<32-1, "far"))
	if got := r.Stats().MalformedUpdates; got != 8 {
		t.Errorf("MalformedUpdates = %d, want 8: two refused definitions, the two batches holding one and the skip ahead", got)
	}
	for _, loc := range []string{"ahead-of-its-seq", "again", "behind-in-its-batch"} {
		if r.lookup(loctab.Hash(loc), loc) != nil {
			t.Errorf("refused definition of %q inserted a cell", loc)
		}
	}
	if got := r.ReadPRAM("late"); got != 0 {
		t.Errorf("late = %d: a reference ahead of its definition applied", got)
	}
	if got := r.ReadPRAM("ok"); got != 1 {
		t.Errorf("ok = %d, want 1: a refused definition of its ordinal overwrote it", got)
	}
	if got := r.ReadPRAM("batched"); got != 0 || r.lookup(loctab.Hash("batched"), "batched") == nil {
		t.Errorf("batched = %d: a batch holding a refused definition applied, or its admitted one made no cell", got)
	}
	rt := &r.refs[0]
	if len(rt.defs) != 4 || cap(rt.defs) != refChunk {
		t.Errorf("table holds %d definitions in capacity %d, want 4 in %d", len(rt.defs), cap(rt.defs), refChunk)
	}
	if got := r.causalApplied.get(0); got != 1<<40 {
		t.Errorf("the sender's stream settled at %d, want %d", got, uint64(1<<40))
	}
}

// TestCoalescedDefinitionStillDefines: a location's defining write that a
// later write of it replaces in a pending batch hands its defines bit on, so
// the batch still names the location and the outbox still counts the name's
// bytes; the receiver resolves it and every later reference.
func TestCoalescedDefinitionStillDefines(t *testing.T) {
	f, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: 2, Transport: f, Batch: manualBatch}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	w, r := nodes[0], nodes[1]
	w.Write("x", 1)
	w.Write("x", 2)
	w.Write("y", 1)
	w.outboxMu.Lock()
	d := w.outbox[1]
	e := d.entries
	ok := len(e) == 2 && e[0].Value == 2 && e[0].Defines && e[0].Loc == "x" && e[1].Defines &&
		d.bytes == e[0].encodedSize()+e[1].encodedSize()
	w.outboxMu.Unlock()
	if !ok {
		t.Fatalf("pending batch %+v (%d bytes): want x=2 defining x in the first entry's place, sized with its name", e, d.bytes)
	}
	w.FlushUpdates()
	w.Write("x", 3)
	w.FlushUpdates()
	min := []uint64{w.SentSeqs(nil)[1], 0}
	within(t, "the coalesced batch and the reference after it", func() { r.WaitCausalApplied(min) })
	if x, y := r.ReadCausal("x"), r.ReadCausal("y"); x != 3 || y != 1 {
		t.Errorf("x = %d, y = %d, want 3 and 1", x, y)
	}
	if got := r.Stats().MalformedUpdates; got != 0 {
		t.Errorf("MalformedUpdates = %d: a reference to the coalesced definition did not resolve", got)
	}
}

// TestScopedReceiverSeesOrdinalHoles: under a scope a receiver gets only its
// locations' updates, so the sender's ordinals reach it with holes — node 1
// is not addressed for p, node 2 not for q. Each receiver's table holds exactly
// the ordinals it was sent, and every later reference resolves.
func TestScopedReceiverSeesOrdinalHoles(t *testing.T) {
	const n = 3
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string][]int{"p": {0, 2}, "q": {0, 1}, "r": {0, 1, 2}}
	scope := &ScopeMap{Readers: readers, CausalReaders: readers}
	nodes := make([]*Node, n)
	for i := range nodes {
		if nodes[i], err = NewNode(Config{ID: i, N: n, Transport: f, Scope: scope}); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		f.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for round := int64(1); round <= 3; round++ {
		for _, loc := range []string{"p", "q", "r"} {
			nodes[0].Write(loc, round)
		}
	}
	sent := nodes[0].SentSeqs(nil)
	for _, tc := range []struct {
		node int
		locs []string
		ords string
	}{{1, []string{"q", "r"}, "[1 2]"}, {2, []string{"p", "r"}, "[0 2]"}} {
		r := nodes[tc.node]
		min := []uint64{sent[tc.node], 0, 0}
		within(t, fmt.Sprintf("node %d's updates", tc.node), func() { r.WaitCausalApplied(min) })
		for _, loc := range tc.locs {
			if got := r.ReadCausal(loc); got != 3 {
				t.Errorf("node %d: %s = %d, want 3", tc.node, loc, got)
			}
		}
		r.clockMu.Lock()
		var ords []uint32
		for _, d := range r.refs[0].defs {
			ords = append(ords, d.ord)
		}
		r.clockMu.Unlock()
		if got := fmt.Sprint(ords); got != tc.ords {
			t.Errorf("node %d holds ordinals %s of node 0, want %s", tc.node, got, tc.ords)
		}
		if got := r.Stats().MalformedUpdates; got != 0 {
			t.Errorf("node %d: MalformedUpdates = %d", tc.node, got)
		}
	}
}

// TestBroadcastLocationBytesExact pins the location field's cost on both
// substrates: three processes each write k locations r times over, broadcast,
// and the bytes on the wire are exactly the updates' fixed fields plus, per
// copy, the ordinal's varint and — in the first round only — the name.
func TestBroadcastLocationBytesExact(t *testing.T) {
	const n, k, r = 3, 70, 3 // ordinals past 63 take a two-byte varint
	loc := func(i int) string { return "loc/" + strconv.Itoa(i) }
	var fixed, locBytes uint64
	for s := 0; s < n; s++ {
		for w := 0; w < k*r; w++ {
			seq, i, defines := uint64(w+1), w%k, w < k
			// sender, seq, flags, value, a 3-component timestamp less the
			// sender's, an empty dependency section
			fixed += (n - 1) * uint64(transport.UvarintLen(uint64(s))+transport.UvarintLen(seq)+1+8+1+16+1)
			field := uint64(i) << 1
			if defines {
				field |= 1
			}
			b := transport.UvarintLen(field)
			if defines {
				b += transport.UvarintLen(uint64(len(loc(i)))) + len(loc(i))
			}
			locBytes += (n - 1) * uint64(b)
		}
	}
	fleet := func() (transport.Transport, error) { return tcp.NewFleet(n) }
	sim := func() (transport.Transport, error) { return network.New(network.Config{Nodes: n}) }
	for name, build := range map[string]func() (transport.Transport, error){"sim": sim, "tcp": fleet} {
		t.Run(name, func(t *testing.T) {
			tr, err := build()
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]*Node, n)
			for i := range nodes {
				if nodes[i], err = NewNode(Config{ID: i, N: n, Transport: tr}); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				tr.Close()
				for _, nd := range nodes {
					nd.Close()
				}
			}()
			done := make(chan struct{})
			for _, nd := range nodes {
				go func() {
					for w := 0; w < k*r; w++ {
						nd.Write(loc(w%k), int64(w))
					}
					done <- struct{}{}
				}()
			}
			for range nodes {
				<-done
			}
			for _, nd := range nodes {
				within(t, "every copy", func() { nd.WaitReceived([]uint64{k * r, k * r, k * r}) })
				if got := nd.Stats().MalformedUpdates; got != 0 {
					t.Fatalf("node %d: MalformedUpdates = %d", nd.ID(), got)
				}
			}
			if got := tr.Stats().BytesSent; got != fixed+locBytes {
				t.Errorf("%d bytes sent, want %d: %d of fixed fields and %d of location fields", got, fixed+locBytes, fixed, locBytes)
			}
		})
	}
}

// FuzzReferenceTable streams arbitrary payloads, decoded as updates and
// batches of sender 0, through one node's receive path. Whatever a peer sends,
// the node must not panic, and its table for the sender must be what a model
// of the admission rule builds from the same definitions in the same order:
// ascending ordinals, each below the Seq that defined it, naming the location
// its definition named — grown in chunks with the definitions, never with an
// ordinal. After every payload, per sender, neither the last sequence number
// received nor the last settled has moved backwards, and the settled one is
// not past the received one. Input: a sequence of [kind byte, length byte,
// payload] records; an odd kind byte is a batch.
func FuzzReferenceTable(f *testing.F) {
	record := func(kind string, p any) []byte {
		enc, err := transport.EncodePayload(nil, kind, p)
		if err != nil {
			f.Fatal(err)
		}
		b := byte(0)
		if kind == KindUpdateBatch {
			b = 1
		}
		return append([]byte{b, byte(len(enc))}, enc...)
	}
	upd := func(seq uint64, ord uint32, loc string) *Update {
		return &Update{From: 0, Seq: seq, Op: OpSet, Loc: loc, Ordinal: ord, Defines: loc != "",
			Value: int64(seq), TS: vclock.VC{seq, 0}}
	}
	var stream []byte
	stream = append(stream, record(KindUpdate, upd(1, 0, "a"))...)
	stream = append(stream, record(KindUpdate, upd(2, 0, ""))...)
	stream = append(stream, record(KindUpdateBatch, &UpdateBatch{From: 0, FirstSeq: 3, Count: 3, Updates: []Update{
		*upd(3, 2, "c"), *upd(4, 0, ""), *upd(5, 4, "e"),
	}})...)
	stream = append(stream, record(KindUpdate, upd(6, 3, ""))...)
	f.Add(stream)
	f.Add(append(record(KindUpdate, upd(7, 9, "ahead")), record(KindUpdate, upd(1<<40, 1<<32-1, "far"))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fab, err := network.New(network.Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewNode(Config{ID: 1, N: 2, Transport: fab})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			fab.Close()
			r.Close()
		}()
		type def struct {
			ord uint32
			loc string
		}
		var model []def
		admit := func(u *Update) {
			if u.Defines && uint64(u.Ordinal) < u.Seq && (len(model) == 0 || u.Ordinal > model[len(model)-1].ord) {
				model = append(model, def{u.Ordinal, u.Loc})
			}
		}
		var recvd, settled [2]uint64
		monotone := func() {
			r.clockMu.Lock()
			defer r.clockMu.Unlock()
			for j := range recvd {
				rc, ca := r.recvd[j], r.causalApplied.get(j)
				if rc < recvd[j] || ca < settled[j] || ca > rc {
					t.Fatalf("sender %d: received %d -> %d, settled %d -> %d", j, recvd[j], rc, settled[j], ca)
				}
				recvd[j], settled[j] = rc, ca
			}
		}
		for len(data) >= 2 {
			kind, size := KindUpdate, int(data[1])
			if data[0]&1 == 1 {
				kind = KindUpdateBatch
			}
			payload := data[2:min(len(data), 2+size)]
			data = data[len(payload)+2:]
			v, err := transport.DecodePayload(kind, payload)
			if err != nil {
				continue
			}
			switch p := v.(type) {
			case *Update:
				if p.From == 0 {
					admit(p)
					r.applyRemote(p)
				}
			case *UpdateBatch:
				if p.From == 0 {
					for i := range p.Updates {
						admit(&p.Updates[i])
					}
					r.applyBatch(p)
				}
			}
			monotone()
		}
		r.clockMu.Lock()
		defer r.clockMu.Unlock()
		defs := r.refs[0].defs
		if len(defs) != len(model) {
			t.Fatalf("table holds %d definitions, the model %d", len(defs), len(model))
		}
		for i, d := range defs {
			if d.ord != model[i].ord || d.loc.Key() != model[i].loc || r.refs[0].find(d.ord) != d.loc {
				t.Fatalf("definition %d: ordinal %d naming %q, the model's %d naming %q", i, d.ord, d.loc.Key(), model[i].ord, model[i].loc)
			}
		}
		if c := cap(defs); c != 0 && c > max(refChunk, 4*len(defs)) {
			t.Fatalf("%d definitions in a table of capacity %d", len(defs), c)
		}
	})
}
