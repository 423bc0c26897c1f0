package transport

import (
	"errors"
	"testing"
)

// appendString is the encoding Decoder.String reads: a uint32 length prefix
// and the bytes of s.
func appendString(dst []byte, s string) []byte {
	return append(AppendUint32(dst, uint32(len(s))), s...)
}

type echoCodec struct{}

func (echoCodec) Encode(dst []byte, payload any) ([]byte, error) {
	return appendString(dst, payload.(string)), nil
}

func (echoCodec) Decode(data []byte) (any, error) {
	d := NewDecoder(data)
	s := d.String()
	return s, d.Err()
}

func TestPayloadRegistry(t *testing.T) {
	RegisterPayload("echo-test", echoCodec{})
	enc, err := EncodePayload(nil, "echo-test", "hello")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodePayload("echo-test", enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != "hello" {
		t.Fatalf("round trip: %v", got)
	}
}

func TestNilPayloadNeedsNoCodec(t *testing.T) {
	enc, err := EncodePayload(nil, "never-registered", nil)
	if err != nil || len(enc) != 0 {
		t.Fatalf("nil payload: enc=%v err=%v", enc, err)
	}
	got, err := DecodePayload("never-registered", nil)
	if err != nil || got != nil {
		t.Fatalf("empty data: got=%v err=%v", got, err)
	}
}

func TestMissingCodecErrors(t *testing.T) {
	if _, err := EncodePayload(nil, "never-registered", 7); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("encode err = %v, want ErrNoCodec", err)
	}
	if _, err := DecodePayload("never-registered", []byte{1}); !errors.Is(err, ErrNoCodec) {
		t.Fatalf("decode err = %v, want ErrNoCodec", err)
	}
}

func TestWireHelpersRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint64(b, 1<<40)
	b = AppendUint32(b, 77)
	b = appendString(b, "loc[3]")
	b = appendString(b, "") // empty string is legal
	b = append(b, 0xAB)

	d := NewDecoder(b)
	if v := d.Uint64(); v != 1<<40 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := d.Uint32(); v != 77 {
		t.Fatalf("Uint32 = %d", v)
	}
	if s := d.String(); s != "loc[3]" {
		t.Fatalf("String = %q", s)
	}
	if s := d.String(); s != "" {
		t.Fatalf("empty String = %q", s)
	}
	if v := d.Byte(); v != 0xAB {
		t.Fatalf("Byte = %x", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderStickyTruncationError(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if v := d.Uint64(); v != 0 {
		t.Fatalf("truncated Uint64 = %d, want 0", v)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Error is sticky: further reads keep returning zero values.
	if v := d.Uint32(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if s := d.String(); s != "" {
		t.Fatalf("string after error = %q", s)
	}

	// A length prefix larger than the remaining bytes must error, not
	// allocate or panic.
	huge := AppendUint32(nil, 1<<30)
	d = NewDecoder(huge)
	if s := d.String(); s != "" || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("oversized string: %q, err %v", s, d.Err())
	}
}

// countingCodec is an echoCodec that also implements ConnCodec: every
// connection decoder it hands out counts its own decodes.
type countingCodec struct {
	echoCodec
	made *int
}

func (c countingCodec) NewConnDecoder(int) func([]byte) (any, error) {
	*c.made++
	n := 0
	return func(data []byte) (any, error) {
		n++
		v, err := c.echoCodec.Decode(data)
		if err != nil {
			return nil, err
		}
		return v.(string) + "#" + string(rune('0'+n)), nil
	}
}

// TestConnDecoder: a connection's decoder resolves each kind once — a
// ConnCodec kind to a decoder of its own that keeps state across payloads, a
// plain kind to the registry's codec, an unregistered kind to a string built
// once — and the nil decoder is DecodePayload with the kind thrown in.
func TestConnDecoder(t *testing.T) {
	made := 0
	RegisterPayload("conn-counting", countingCodec{made: &made})
	RegisterPayload("conn-plain", echoCodec{})
	enc := appendString(nil, "v")

	var c ConnDecoder
	for i, want := range []string{"v#1", "v#2", "v#3"} {
		kind, got, err := c.DecodeKindPayload([]byte("conn-counting"), enc)
		if err != nil || kind != "conn-counting" || got != want {
			t.Fatalf("payload %d: kind %q, %v, %v; want %q from the connection's own decoder", i, kind, got, err, want)
		}
		// Another kind in between does not unseat it.
		if kind, got, err := c.DecodeKindPayload([]byte("conn-plain"), enc); err != nil || kind != "conn-plain" || got != "v" {
			t.Fatalf("plain kind: %q, %v, %v", kind, got, err)
		}
	}
	if made != 1 {
		t.Fatalf("connection asked for %d decoders of one kind, want 1", made)
	}
	var other ConnDecoder
	if _, got, _ := other.DecodeKindPayload([]byte("conn-counting"), enc); got != "v#1" || made != 2 {
		t.Fatalf("a second connection decoded %v with %d decoders made; want state of its own", got, made)
	}

	// Stateless: the codec's plain Decode, every time, and nothing made.
	var none *ConnDecoder
	for i := 0; i < 2; i++ {
		kind, got, err := none.DecodeKindPayload([]byte("conn-counting"), enc)
		want, wantErr := DecodePayload("conn-counting", enc)
		if kind != "conn-counting" || got != want || err != wantErr || made != 2 {
			t.Fatalf("nil decoder: %q, %v, %v; DecodePayload: %v, %v", kind, got, err, want, wantErr)
		}
	}

	// Kinds without a codec: legal with an empty payload, ErrNoCodec with
	// one, on either decoder; the connection builds the string once.
	for _, d := range []*ConnDecoder{none, &c} {
		if kind, got, err := d.DecodeKindPayload([]byte("conn-signal"), nil); kind != "conn-signal" || got != nil || err != nil {
			t.Fatalf("signal: %q, %v, %v", kind, got, err)
		}
		if _, _, err := d.DecodeKindPayload([]byte("conn-signal"), []byte{1}); !errors.Is(err, ErrNoCodec) {
			t.Fatalf("payload without a codec: err = %v, want ErrNoCodec", err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = c.DecodeKindPayload([]byte("conn-signal"), nil) }); allocs > 0 {
		t.Errorf("a signal kind the connection has seen: %.1f allocs, want 0", allocs)
	}

	// A peer that invents kinds fills the list and no more.
	for i := 0; i < 4*maxConnKinds; i++ {
		name := "conn-invented-" + string(rune('a'+i))
		if kind, _, err := c.DecodeKindPayload([]byte(name), nil); kind != name || err != nil {
			t.Fatalf("invented kind %q decoded as %q, %v", name, kind, err)
		}
	}
	if len(c.kinds) != maxConnKinds {
		t.Fatalf("connection remembers %d kinds, want the bound %d", len(c.kinds), maxConnKinds)
	}
	if _, got, err := c.DecodeKindPayload([]byte("conn-counting"), enc); err != nil || got != "v#4" {
		t.Fatalf("after the flood: %v, %v; want the connection's decoder still in place", got, err)
	}
}

// TestUvarintCanonical: Uvarint decodes exactly the minimal encodings
// AppendUvarint writes. An overlong (past 64 bits), non-minimal (a redundant
// final zero byte) or cut-short varint sets ErrTruncated and reads as zero, so
// decode∘encode is the identity on every input the decoder accepts.
func TestUvarintCanonical(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		b := AppendUvarint(nil, v)
		if len(b) != UvarintLen(v) {
			t.Errorf("%d: %d bytes, UvarintLen says %d", v, len(b), UvarintLen(v))
		}
		d := NewDecoder(b)
		if got := d.Uvarint(); got != v || d.Err() != nil || d.Remaining() != 0 {
			t.Errorf("%d: decoded %d, err %v, %d bytes left", v, got, d.Err(), d.Remaining())
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"cut short", []byte{0x80}},
		{"cut short after two bytes", []byte{0xff, 0xff}},
		{"zero in two bytes", []byte{0x80, 0x00}},
		{"one in three bytes", []byte{0x81, 0x80, 0x00}},
		{"2^63 spilling into an eleventh byte", append(AppendUvarint(nil, 1<<63)[:9:9], 0x81, 0x00)},
		{"65 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	} {
		d := NewDecoder(tc.data)
		if got := d.Uvarint(); got != 0 || !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s (% x): decoded %d, err %v; want 0 and ErrTruncated", tc.name, tc.data, got, d.Err())
		}
		d = NewDecoder(tc.data)
		if n := d.UvarintCount(1); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s (% x): count %d, err %v; want 0 and ErrTruncated", tc.name, tc.data, n, d.Err())
		}
	}
	// UvarintCount bounds a count by the bytes behind it: a count is good
	// exactly when those bytes could hold that many minimal elements.
	fits := append(AppendUvarint(nil, 2), make([]byte, 8)...)
	if n := NewDecoder(fits).UvarintCount(4); n != 2 {
		t.Fatalf("UvarintCount(4) of 2 with 8 bytes behind it = %d", n)
	}
	d := NewDecoder(fits)
	if n := d.UvarintCount(5); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("UvarintCount(5) of 2 with 8 bytes behind it = %d, err %v", n, d.Err())
	}
	d = NewDecoder(AppendUvarintString(AppendUvarint(nil, 1<<64-1), "loc"))
	if d.UvarintBytes(); !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("a 2^64-1 byte string decoded: err %v", d.Err())
	}
	d = NewDecoder(AppendUvarintString(nil, "loc[3]"))
	if s := d.UvarintBytes(); string(s) != "loc[3]" || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("UvarintBytes = %q, err %v, %d left", s, d.Err(), d.Remaining())
	}
}
