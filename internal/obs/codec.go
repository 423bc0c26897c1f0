package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The snapshot wire form is the unit of the fleet trace drain: each node
// encodes its ring snapshot to bytes, ships the bytes through the DSM as
// packed int64 cells (BytesToCells), and the collector decodes and merges
// them. A trace file is just snapshots concatenated, so the same codec is
// the export format of `mixedbench -trace` and the input format of
// `mixedtrace`.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "MXTR", version byte
//	tag       len + bytes
//	node, capacity, recorded, dropped
//	nlocs, then per location: len + bytes
//	nevents, then per event:
//	  index, time (zigzag), type byte, label byte, peer, loc, seq, a, b
//
// The decoder is the wire contract: it must never panic on arbitrary
// bytes, and every accepted input must re-encode and re-decode to the
// same value (FuzzSnapshotCodecRoundTrip pins both).

var traceMagic = [5]byte{'M', 'X', 'T', 'R', 1}

var errShort = errors.New("obs: truncated snapshot")

// AppendSnapshot encodes s onto buf and returns the extended slice.
func AppendSnapshot(buf []byte, s *Snapshot) []byte {
	buf = append(buf, traceMagic[:]...)
	buf = appendString(buf, s.Tag)
	buf = binary.AppendUvarint(buf, uint64(s.Node))
	buf = binary.AppendUvarint(buf, uint64(s.Capacity))
	buf = binary.AppendUvarint(buf, s.Recorded)
	buf = binary.AppendUvarint(buf, s.Dropped)
	buf = binary.AppendUvarint(buf, uint64(len(s.Locs)))
	for _, l := range s.Locs {
		buf = appendString(buf, l)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Events)))
	for i := range s.Events {
		e := &s.Events[i]
		buf = binary.AppendUvarint(buf, e.Index)
		buf = binary.AppendVarint(buf, e.Time)
		buf = append(buf, byte(e.Type), e.Label)
		buf = binary.AppendUvarint(buf, uint64(e.Peer))
		buf = binary.AppendUvarint(buf, uint64(e.Loc))
		buf = binary.AppendUvarint(buf, e.Seq)
		buf = binary.AppendUvarint(buf, e.A)
		buf = binary.AppendUvarint(buf, e.B)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeSnapshot decodes one snapshot from the front of data, returning
// it and the number of bytes consumed. Arbitrary input is rejected with
// an error, never a panic; count fields are bounded by the remaining
// input, so hostile lengths cannot force large allocations.
func DecodeSnapshot(data []byte) (*Snapshot, int, error) {
	d := &decoder{buf: data}
	var magic [5]byte
	d.bytes(magic[:])
	if d.err == nil && magic != traceMagic {
		return nil, 0, fmt.Errorf("obs: bad snapshot magic %q", magic[:])
	}
	s := &Snapshot{}
	s.Tag = d.str()
	s.Node = int(d.uvarBounded(1 << 20))
	s.Capacity = int(d.uvarBounded(1 << 40))
	s.Recorded = d.uvar()
	s.Dropped = d.uvar()
	nlocs := d.uvarBounded(uint64(len(data)))
	if d.err == nil {
		s.Locs = make([]string, 0, min(int(nlocs), 1024))
		for i := uint64(0); i < nlocs && d.err == nil; i++ {
			s.Locs = append(s.Locs, d.str())
		}
	}
	nev := d.uvarBounded(uint64(len(data)))
	if d.err == nil {
		s.Events = make([]Event, 0, min(int(nev), 4096))
		for i := uint64(0); i < nev && d.err == nil; i++ {
			var e Event
			e.Index = d.uvar()
			e.Time = d.varint()
			e.Type = EventType(d.byte())
			e.Label = d.byte()
			e.Peer = uint16(d.uvarBounded(1 << 16))
			e.Loc = uint32(d.uvarBounded(1 << 32))
			e.Seq = d.uvar()
			e.A = d.uvar()
			e.B = d.uvar()
			if d.err == nil {
				s.Events = append(s.Events, e)
			}
		}
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return s, d.off, nil
}

// EncodeTrace encodes a merged trace: snapshots back to back.
func EncodeTrace(snaps []*Snapshot) []byte {
	var buf []byte
	for _, s := range snaps {
		buf = AppendSnapshot(buf, s)
	}
	return buf
}

// DecodeTrace decodes a concatenation of snapshots until the input is
// exhausted.
func DecodeTrace(data []byte) ([]*Snapshot, error) {
	var snaps []*Snapshot
	for len(data) > 0 {
		s, n, err := DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
		data = data[n:]
	}
	return snaps, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) bytes(dst []byte) {
	if d.err != nil {
		return
	}
	if len(d.buf)-d.off < len(dst) {
		d.err = errShort
		return
	}
	copy(dst, d.buf[d.off:])
	d.off += len(dst)
}

func (d *decoder) byte() byte {
	var b [1]byte
	d.bytes(b[:])
	return b[0]
}

func (d *decoder) uvar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = errShort
		return 0
	}
	d.off += n
	return v
}

// uvarBounded reads a uvarint and rejects values at or above limit — the
// guard that keeps count and ID fields from becoming allocation bombs or
// overflowing their packed-field width.
func (d *decoder) uvarBounded(limit uint64) uint64 {
	v := d.uvar()
	if d.err == nil && v >= limit {
		d.err = fmt.Errorf("obs: field value %d out of range (limit %d)", v, limit)
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = errShort
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvar()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = errShort
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// BytesToCells packs an encoded byte stream into int64 memory cells for
// shipping through the DSM itself: cell 0 is the byte length, each
// following cell holds eight little-endian payload bytes. mixednode's
// fleet exchange writes these cells under <prefix>/<node>/... and every
// node reassembles every node's blob after a barrier.
func BytesToCells(data []byte) []int64 {
	cells := make([]int64, 1+(len(data)+7)/8)
	cells[0] = int64(len(data))
	for i := 0; i < len(data); i += 8 {
		var w [8]byte
		copy(w[:], data[i:])
		cells[1+i/8] = int64(binary.LittleEndian.Uint64(w[:]))
	}
	return cells
}

// CellsToBytes reverses BytesToCells.
func CellsToBytes(cells []int64) ([]byte, error) {
	if len(cells) == 0 {
		return nil, errors.New("obs: empty cell stream")
	}
	n := cells[0]
	if n < 0 || int(n) > (len(cells)-1)*8 {
		return nil, fmt.Errorf("obs: cell stream claims %d bytes but carries %d cells", n, len(cells)-1)
	}
	buf := make([]byte, (len(cells)-1)*8)
	for i, c := range cells[1:] {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(c))
	}
	return buf[:n], nil
}
