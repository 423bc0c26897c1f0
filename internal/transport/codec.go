package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// PayloadCodec serializes one message kind's payload for wire backends. The
// in-process fabric passes payloads by reference and never consults codecs;
// wire transports (internal/transport/tcp) look the codec up by the
// message's Kind.
//
// Encode appends the payload's binary form to dst and returns the extended
// slice. Decode parses the payload back; it must return the same concrete
// type senders pass in Message.Payload, because receivers type-assert on it.
type PayloadCodec interface {
	Encode(dst []byte, payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// registered is one registry entry. It repeats its map key so a receiver
// holding the kind as wire bytes can get the string without allocating one.
type registered struct {
	kind  string
	codec PayloadCodec
}

var (
	codecMu sync.RWMutex
	codecs  = make(map[string]registered)
)

// ErrNoCodec is returned when a non-nil payload has no registered codec for
// its kind.
var ErrNoCodec = errors.New("transport: no payload codec registered")

// RegisterPayload installs the codec for a message kind. Protocol packages
// call it from init; later registrations replace earlier ones.
func RegisterPayload(kind string, c PayloadCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecs[kind] = registered{kind: kind, codec: c}
}

// EncodePayload serializes payload for the given kind. A nil payload
// encodes to an empty slice regardless of registration (several protocol
// messages, like flush probes, are pure signals).
func EncodePayload(dst []byte, kind string, payload any) ([]byte, error) {
	if payload == nil {
		return dst, nil
	}
	codecMu.RLock()
	c := codecs[kind].codec
	codecMu.RUnlock()
	if c == nil {
		return dst, fmt.Errorf("%w: kind %q", ErrNoCodec, kind)
	}
	return c.Encode(dst, payload)
}

// DecodePayload parses a payload of the given kind. Empty data decodes to
// nil.
func DecodePayload(kind string, data []byte) (any, error) {
	if len(data) == 0 {
		return nil, nil
	}
	codecMu.RLock()
	c := codecs[kind].codec
	codecMu.RUnlock()
	if c == nil {
		return nil, fmt.Errorf("%w: kind %q", ErrNoCodec, kind)
	}
	return c.Decode(data)
}

// ConnCodec is a PayloadCodec whose decoding is worth keeping state for across
// the payloads of one connection: slabs to carve decoded values from, a cache
// of strings it has already built. A wire transport's receive loop serves a
// connection from one goroutine, so such state needs no lock and no pool.
type ConnCodec interface {
	PayloadCodec
	// NewConnDecoder returns a decode function that owns fresh state, for a
	// connection of a cluster of nodes processes (0 when unknown). It is
	// called from one goroutine at a time and must return values deep-equal to
	// Decode's on every input the cluster's peers can send, but for what the
	// codec keeps to take a value back once its receiver is done with it (a
	// dsm update's link to its pool), which is no part of what the payload
	// says. It may refuse, before allocating for it, a payload Decode accepts
	// whose shape names another cluster size.
	NewConnDecoder(nodes int) func(data []byte) (any, error)
}

// ConnDecoder is the decode state of one inbound connection of a wire
// transport: the kinds the connection has carried, each resolved against the
// codec registry once, with the ConnCodec decoders those kinds asked for. It
// belongs to the goroutine serving the connection, and it keeps the codec it
// resolved for a kind even if the kind is registered again later (codecs are
// registered from init). The nil *ConnDecoder is the stateless decoder: it
// consults the registry on every call, keeps nothing, and returns what
// DecodePayload returns.
type ConnDecoder struct {
	// Nodes is the size of the cluster the connection belongs to, which each
	// ConnCodec's decoder is built for; zero when unknown.
	Nodes int
	// kinds is scanned from the last hit: a connection carries a handful of
	// kinds in long runs of one.
	kinds []connKind
	hit   int
}

// connKind is one kind a connection has carried. codec is nil for a kind
// without one, which is legal for nil-payload signals; decode is the
// connection's own decoder for a ConnCodec kind.
type connKind struct {
	kind   string
	codec  PayloadCodec
	decode func(data []byte) (any, error)
}

// maxConnKinds bounds ConnDecoder.kinds, and with it what a peer that invents
// kind names can make the connection keep; kinds beyond it are resolved per
// payload. The runtime defines about a dozen.
const maxConnKinds = 16

// resolve finds kind in the connection's list, or in the registry.
func (c *ConnDecoder) resolve(kind []byte) connKind {
	if c != nil {
		for n := len(c.kinds); n > 0; n-- {
			if c.hit == len(c.kinds) {
				c.hit = 0
			}
			if k := c.kinds[c.hit]; k.kind == string(kind) {
				return k
			}
			c.hit++
		}
	}
	codecMu.RLock()
	r := codecs[string(kind)] // indexing by string(kind) does not allocate
	codecMu.RUnlock()
	k := connKind{kind: r.kind, codec: r.codec}
	if r.codec == nil {
		k.kind = string(kind)
	}
	if c != nil && len(c.kinds) < maxConnKinds {
		if cc, ok := r.codec.(ConnCodec); ok {
			k.decode = cc.NewConnDecoder(c.Nodes)
		}
		c.hit = len(c.kinds)
		c.kinds = append(c.kinds, k)
	}
	return k
}

// DecodeKindPayload is DecodePayload for a receiver that holds the kind as
// wire bytes: it returns the kind as a string together with the payload. A
// registered kind comes back as the registry's own key and a kind the
// connection has carried before as the string built then; only a kind seen
// for the first time without a codec is copied.
func (c *ConnDecoder) DecodeKindPayload(kind, data []byte) (string, any, error) {
	k := c.resolve(kind)
	var payload any
	var err error
	switch {
	case len(data) == 0:
	case k.codec == nil:
		err = fmt.Errorf("%w: kind %q", ErrNoCodec, k.kind)
	case k.decode != nil:
		payload, err = k.decode(data)
	default:
		payload, err = k.codec.Decode(data)
	}
	return k.kind, payload, err
}

// Wire-format helpers shared by the payload codecs and the TCP framing. Fixed
// integers are big-endian (encoding/binary); the plain strings carry a uint32
// length prefix. A codec may instead write an integer, or the length of a
// string, as an unsigned varint (encoding/binary's LEB128 form), which the
// Decoder accepts only in its one minimal encoding.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// UvarintLen returns the number of bytes AppendUvarint writes for v.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendUvarintString appends a varint length prefix and the bytes of s.
func AppendUvarintString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendUint64 appends v big-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// AppendUint32 appends v big-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// ErrTruncated is recorded by a Decoder that runs out of bytes.
var ErrTruncated = errors.New("transport: truncated payload")

// Decoder is a cursor over an encoded payload. Reads past the end set a
// sticky error and return zero values, so codecs can decode a full struct
// and check Err once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a Decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d",
			ErrTruncated, n, d.off, len(d.data))
		return nil
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

// Uint64 reads one big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uint32 reads one big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// String reads a uint32-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Bytes reads a uint32-prefixed string without copying it: the result
// aliases the decoder's input.
func (d *Decoder) Bytes() []byte {
	n := int(d.Uint32())
	if d.err != nil || n > d.Remaining() {
		if d.err == nil {
			d.err = fmt.Errorf("%w: string of %d bytes with %d remaining",
				ErrTruncated, n, d.Remaining())
		}
		return nil
	}
	return d.take(n)
}

// Uvarint reads one unsigned varint. Only the minimal encoding of a value
// decodes: one longer than 64 bits or with a redundant final zero byte sets
// ErrTruncated, so every accepted input is the encoding of what it decodes to.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	switch {
	case n == 0:
		d.err = fmt.Errorf("%w: varint cut short at offset %d of %d", ErrTruncated, d.off, len(d.data))
	case n < 0:
		d.err = fmt.Errorf("%w: varint longer than 64 bits at offset %d", ErrTruncated, d.off)
	case n > 1 && d.data[d.off+n-1] == 0:
		d.err = fmt.Errorf("%w: non-minimal %d-byte varint at offset %d", ErrTruncated, n, d.off)
	}
	if d.err != nil {
		return 0
	}
	d.off += n
	return v
}

// UvarintCount reads a varint element count and checks it against the bytes
// that are left, each element taking at least elemMin of them: a count the
// payload cannot hold sets ErrTruncated and reads as zero, so nothing is ever
// sized by a number that only the wire vouches for.
func (d *Decoder) UvarintCount(elemMin int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Remaining()/elemMin) {
		d.err = fmt.Errorf("%w: %d elements of at least %d bytes with %d bytes remaining",
			ErrTruncated, v, elemMin, d.Remaining())
		return 0
	}
	return int(v)
}

// UvarintBytes reads a varint-prefixed string without copying it: the result
// aliases the decoder's input.
func (d *Decoder) UvarintBytes() []byte {
	return d.take(d.UvarintCount(1))
}
