package syncmgr

import (
	"fmt"
	"math"

	"mixedmem/internal/loctab"
	"mixedmem/internal/transport"
)

// Wire codecs for the synchronization protocol payloads, registered so wire
// transports (internal/transport/tcp) can carry lock and barrier traffic
// between OS processes. Flush probes and acknowledgements carry nil payloads
// and need no codec. Layouts, in internal/dsm's notation (u64 big-endian,
// uvarint encoding/binary's minimal unsigned varint; str is a uvarint length
// and the bytes, vec a uvarint count n and n u64 entries):
//
//	lock-req:    str Lock | u8 Mode | uvarint ReqID
//	lock-grant:  uvarint ReqID | u64 Epoch | vec RelVC | writeSet
//	lock-rel:    str Lock | u8 Mode | vec Counts | writeSet
//	bar-arrive:  uvarint K | vec Sent | str Group | uvarint m | m*uvarint Members
//	bar-release: uvarint K | vec Expected | str Group
//	writeSet:    uvarint n | n*(str Loc | uvarint From | uvarint Seq)
//
// No payload names the process that sent it: a handler takes the message's
// From, which both substrates supply. A grant does not name its lock either;
// its ReqID names the request. Mode is ReadMode or WriteMode, a global
// barrier (Group "") lists no members, and a write-set is sorted by location
// with no location twice; the encoders refuse anything else and so does
// decoding, together with non-minimal varints and trailing bytes, so the only
// input that decodes to a value is its encoding.
//
// Varints carry what the program fixes — lengths, counts, request ids, barrier
// rounds, member ids, write-set stamps — and fixed-width u64s what the schedule
// decides: the sequence vectors and the epoch, whose numbering depends on which
// reads the manager found queued together. So a payload's size does not depend
// on the interleaving that produced its values (DESIGN.md §7). Each payload's
// size method is the length its encoder writes, and it is what the runtime
// counts as the message's Size.

func init() {
	register(KindLockReq, (*lockRequest).appendTo, parseLockReq)
	register(KindLockGrant, (*lockGrant).appendTo, parseLockGrant)
	register(KindLockRel, (*lockRelease).appendTo, parseLockRel)
	register(KindBarArrive, (*barArrive).appendTo, parseBarArrive)
	register(KindBarRelease, (*barRelease).appendTo, parseBarRelease)
}

// maxID bounds a decoded process id, so it converts to an int that no
// arithmetic on it overflows.
const maxID = 1<<31 - 1

// strSize, vecSize and writeSetSize are the lengths of the str, vec and
// writeSet fields.
func strSize(s string) int { return transport.UvarintLen(uint64(len(s))) + len(s) }

func vecSize(v []uint64) int { return transport.UvarintLen(uint64(len(v))) + 8*len(v) }

func writeSetSize(ws []writeStamp) int {
	n := transport.UvarintLen(uint64(len(ws)))
	for i := range ws {
		n += strSize(ws[i].Loc) + transport.UvarintLen(uint64(ws[i].From)) + transport.UvarintLen(ws[i].Seq)
	}
	return n
}

func appendVec(dst []byte, v []uint64) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = transport.AppendUint64(dst, x)
	}
	return dst
}

func appendWriteSet(dst []byte, ws []writeStamp) ([]byte, error) {
	dst = transport.AppendUvarint(dst, uint64(len(ws)))
	for i, s := range ws {
		if i > 0 && s.Loc <= ws[i-1].Loc {
			return dst, fmt.Errorf("write-set location %q after %q", s.Loc, ws[i-1].Loc)
		}
		if s.From < 0 || s.From > maxID {
			return dst, fmt.Errorf("write-set stamp from process %d", s.From)
		}
		dst = transport.AppendUvarintString(dst, s.Loc)
		dst = transport.AppendUvarint(dst, uint64(s.From))
		dst = transport.AppendUvarint(dst, s.Seq)
	}
	return dst, nil
}

func checkMode(m LockMode) error {
	if m != ReadMode && m != WriteMode {
		return fmt.Errorf("lock mode %d", m)
	}
	return nil
}

func (r *lockRequest) size() int { return strSize(r.Lock) + 1 + transport.UvarintLen(r.ReqID) }

func (r *lockRequest) appendTo(dst []byte) ([]byte, error) {
	if err := checkMode(r.Mode); err != nil {
		return dst, err
	}
	dst = transport.AppendUvarintString(dst, r.Lock)
	dst = append(dst, byte(r.Mode))
	return transport.AppendUvarint(dst, r.ReqID), nil
}

func (g *lockGrant) size() int {
	return transport.UvarintLen(g.ReqID) + 8 + vecSize(g.RelVC) + writeSetSize(g.WriteSet)
}

func (g *lockGrant) appendTo(dst []byte) ([]byte, error) {
	if g.Epoch < 0 {
		return dst, fmt.Errorf("epoch %d", g.Epoch)
	}
	dst = transport.AppendUvarint(dst, g.ReqID)
	dst = transport.AppendUint64(dst, uint64(g.Epoch))
	dst = appendVec(dst, g.RelVC)
	return appendWriteSet(dst, g.WriteSet)
}

func (r *lockRelease) size() int {
	return strSize(r.Lock) + 1 + vecSize(r.Counts) + writeSetSize(r.WriteSet)
}

func (r *lockRelease) appendTo(dst []byte) ([]byte, error) {
	if err := checkMode(r.Mode); err != nil {
		return dst, err
	}
	dst = transport.AppendUvarintString(dst, r.Lock)
	dst = append(dst, byte(r.Mode))
	dst = appendVec(dst, r.Counts)
	return appendWriteSet(dst, r.WriteSet)
}

func (a *barArrive) size() int {
	n := transport.UvarintLen(uint64(a.K)) + vecSize(a.Sent) + strSize(a.Group) +
		transport.UvarintLen(uint64(len(a.Members)))
	for _, m := range a.Members {
		n += transport.UvarintLen(uint64(m))
	}
	return n
}

func (a *barArrive) appendTo(dst []byte) ([]byte, error) {
	if a.K < 0 || (a.Group == "" && len(a.Members) > 0) {
		return dst, fmt.Errorf("barrier %q round %d with %d members", a.Group, a.K, len(a.Members))
	}
	dst = transport.AppendUvarint(dst, uint64(a.K))
	dst = appendVec(dst, a.Sent)
	dst = transport.AppendUvarintString(dst, a.Group)
	dst = transport.AppendUvarint(dst, uint64(len(a.Members)))
	for _, m := range a.Members {
		if m < 0 || m > maxID {
			return dst, fmt.Errorf("barrier member %d", m)
		}
		dst = transport.AppendUvarint(dst, uint64(m))
	}
	return dst, nil
}

func (r *barRelease) size() int {
	return transport.UvarintLen(uint64(r.K)) + vecSize(r.Expected) + strSize(r.Group)
}

func (r *barRelease) appendTo(dst []byte) ([]byte, error) {
	if r.K < 0 {
		return dst, fmt.Errorf("barrier round %d", r.K)
	}
	dst = transport.AppendUvarint(dst, uint64(r.K))
	dst = appendVec(dst, r.Expected)
	return transport.AppendUvarintString(dst, r.Group), nil
}

// codec is the transport.ConnCodec of one payload kind: T is the payload, sent
// and decoded as a *T, encode its encoder and parse its one parse body, which
// the stateless Decode and a connection's decoder share so the two cannot
// disagree on what a payload means.
type codec[T any] struct {
	kind   string
	encode func(*T, []byte) ([]byte, error)
	parse  func(*decodeState, []byte) (T, error)
}

func register[T any](kind string, encode func(*T, []byte) ([]byte, error), parse func(*decodeState, []byte) (T, error)) {
	transport.RegisterPayload(kind, codec[T]{kind, encode, parse})
}

func (c codec[T]) Encode(dst []byte, payload any) ([]byte, error) {
	p, ok := payload.(*T)
	if !ok {
		return dst, fmt.Errorf("syncmgr: %s codec: payload is %T", c.kind, payload)
	}
	dst, err := c.encode(p, dst)
	if err != nil {
		return dst, fmt.Errorf("syncmgr: %s codec: %w", c.kind, err)
	}
	return dst, nil
}

func (c codec[T]) Decode(data []byte) (any, error) { return c.decode(nil, nil, data) }

func (c codec[T]) NewConnDecoder(int) func([]byte) (any, error) {
	s, out := new(decodeState), new(slab[cell[T]])
	return func(data []byte) (any, error) { return c.decode(s, out, data) }
}

// cellWords is how many sequence-vector words a received payload's cell holds,
// enough for the vector of any system of that many processes.
const cellWords = 8

// cell is the slab element a connection's decoder stores a payload in, and a
// lock client its releases, with room for its sequence vector: a payload and
// its vector cost one element.
type cell[T any] struct {
	p     T
	words [cellWords]uint64
}

// decode parses data into the next cell of out, or into allocations of its own
// when out is nil. A decode that fails leaves its cell unused.
func (c codec[T]) decode(s *decodeState, out *slab[cell[T]], data []byte) (any, error) {
	var p *T
	if out != nil {
		e := out.next()
		p, s.spare = &e.p, e.words[:]
	}
	v, err := c.parse(s, data)
	if err != nil {
		return nil, fmt.Errorf("syncmgr: %s codec: %w", c.kind, err)
	}
	if p == nil {
		p = new(T)
	}
	*p = v
	return p, nil
}

// decodeState is what one inbound connection keeps between the payloads of one
// kind it decodes: the rest of the current payload's cell, the slabs longer
// sequence vectors, member lists and write-sets are carved from, and a cache of
// the lock, group and location names it has built.
// It belongs to the goroutine serving the connection, and what it hands out is
// never written again, like the sender's slabs. A slab is referenced by the
// state only until it is used up, so the collector frees it with the last
// payload carved from it; a decode that fails may leave some of it unused.
//
// The nil *decodeState decodes statelessly: every part is its own allocation.
type decodeState struct {
	spare  []uint64
	words  vecSlab[uint64]
	ints   vecSlab[int]
	stamps vecSlab[writeStamp]
	names  [nameCacheSize]string
}

const (
	// nameCacheSize is the number of slots of the direct-mapped name cache, a
	// power of two; a name whose slot holds another replaces it, so a miss
	// costs a string, never more memory.
	nameCacheSize = 256
	// maxCachedName is the longest name the cache keeps, and maxSlabRun the
	// longest vector, member list or write-set carved from a slab: a longer
	// one is its own allocation, so what a peer's claims can make a
	// connection hold stays small.
	maxCachedName = 128
	maxSlabRun    = 64
)

// name returns b as a string: the cached one when the connection has decoded
// this name before and its slot still holds it.
func (s *decodeState) name(b []byte) string {
	if s == nil || len(b) > maxCachedName {
		return string(b)
	}
	h := loctab.HashBytes(b)
	slot := &s.names[(h^h>>16)&(nameCacheSize-1)]
	if *slot != string(b) { // the comparison does not allocate
		*slot = string(b)
	}
	return *slot
}

// vec reads a vec field into the cell's words when it fits; a zero count
// decodes to nil.
func (s *decodeState) vec(d *transport.Decoder) []uint64 {
	n := d.UvarintCount(8)
	if n == 0 {
		return nil
	}
	var v []uint64
	switch {
	case s == nil || n > maxSlabRun:
		v = make([]uint64, n)
	case n <= len(s.spare):
		v, s.spare = s.spare[:n:n], nil
	default:
		v = s.words.next(n)
	}
	for i := range v {
		v[i] = d.Uint64()
	}
	return v
}

// minWriteStamp is the shortest encoded write-set entry: an empty location
// and one-byte From and Seq.
const minWriteStamp = 3

// writeSet reads a writeSet field; an empty one decodes to nil.
func (s *decodeState) writeSet(d *transport.Decoder) ([]writeStamp, error) {
	n := d.UvarintCount(minWriteStamp)
	if n == 0 {
		return nil, nil
	}
	var ws []writeStamp
	if s == nil || n > maxSlabRun {
		ws = make([]writeStamp, n)
	} else {
		ws = s.stamps.next(n)
	}
	for i := range ws {
		loc, from, seq := d.UvarintBytes(), d.Uvarint(), d.Uvarint()
		if d.Err() != nil {
			return nil, nil // the caller reports the truncation
		}
		if i > 0 && string(loc) <= ws[i-1].Loc {
			return nil, fmt.Errorf("write-set location %q after %q", loc, ws[i-1].Loc)
		}
		if from > maxID {
			return nil, fmt.Errorf("write-set stamp from process %d", from)
		}
		ws[i] = writeStamp{Loc: s.name(loc), From: int(from), Seq: seq}
	}
	return ws, nil
}

// mode reads a Mode byte.
func mode(d *transport.Decoder) (LockMode, error) {
	m := LockMode(d.Byte())
	if d.Err() != nil {
		return 0, nil // the caller reports the truncation
	}
	return m, checkMode(m)
}

// round reads a barrier round.
func round(d *transport.Decoder) (int, error) {
	k := d.Uvarint()
	if k > math.MaxInt {
		return 0, fmt.Errorf("barrier round %d", k)
	}
	return int(k), nil
}

// end returns d's error, or one for bytes left over: a payload is decoded
// whole.
func end(d *transport.Decoder) error {
	if err := d.Err(); err != nil || d.Remaining() == 0 {
		return err
	}
	return fmt.Errorf("%d bytes after the payload", d.Remaining())
}

func parseLockReq(s *decodeState, data []byte) (r lockRequest, err error) {
	d := transport.NewDecoder(data)
	r.Lock = s.name(d.UvarintBytes())
	if r.Mode, err = mode(d); err != nil {
		return r, err
	}
	r.ReqID = d.Uvarint()
	return r, end(d)
}

func parseLockGrant(s *decodeState, data []byte) (g lockGrant, err error) {
	d := transport.NewDecoder(data)
	g.ReqID = d.Uvarint()
	epoch := d.Uint64()
	if epoch > math.MaxInt {
		return g, fmt.Errorf("epoch %d", epoch)
	}
	g.Epoch = int(epoch)
	g.RelVC = s.vec(d)
	if g.WriteSet, err = s.writeSet(d); err != nil {
		return g, err
	}
	return g, end(d)
}

func parseLockRel(s *decodeState, data []byte) (r lockRelease, err error) {
	d := transport.NewDecoder(data)
	r.Lock = s.name(d.UvarintBytes())
	if r.Mode, err = mode(d); err != nil {
		return r, err
	}
	r.Counts = s.vec(d)
	if r.WriteSet, err = s.writeSet(d); err != nil {
		return r, err
	}
	return r, end(d)
}

func parseBarArrive(s *decodeState, data []byte) (a barArrive, err error) {
	d := transport.NewDecoder(data)
	if a.K, err = round(d); err != nil {
		return a, err
	}
	a.Sent = s.vec(d)
	a.Group = s.name(d.UvarintBytes())
	n := d.UvarintCount(1)
	if a.Group == "" && n > 0 {
		return a, fmt.Errorf("global barrier with %d members", n)
	}
	switch {
	case n == 0:
	case s == nil || n > maxSlabRun:
		a.Members = make([]int, n)
	default:
		a.Members = s.ints.next(n)
	}
	for i := range a.Members {
		m := d.Uvarint()
		if m > maxID {
			return a, fmt.Errorf("barrier member %d", m)
		}
		a.Members[i] = int(m)
	}
	return a, end(d)
}

func parseBarRelease(s *decodeState, data []byte) (r barRelease, err error) {
	d := transport.NewDecoder(data)
	if r.K, err = round(d); err != nil {
		return r, err
	}
	r.Expected = s.vec(d)
	r.Group = s.name(d.UvarintBytes())
	return r, end(d)
}
