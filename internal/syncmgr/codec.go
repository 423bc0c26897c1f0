package syncmgr

import (
	"fmt"

	"mixedmem/internal/transport"
)

// Wire codecs for the synchronization protocol payloads, registered so wire
// transports (internal/transport/tcp) can carry lock and barrier traffic
// between OS processes. Flush probes and acknowledgements carry nil
// payloads and need no codec. All layouts are big-endian with uint32 count
// prefixes (the transport package's wire helpers). Every codec encodes from
// and decodes into the pointer form the handlers assert on.

func init() {
	transport.RegisterPayload(KindLockReq, lockReqCodec{})
	transport.RegisterPayload(KindLockGrant, lockGrantCodec{})
	transport.RegisterPayload(KindLockRel, lockRelCodec{})
	transport.RegisterPayload(KindBarArrive, barArriveCodec{})
	transport.RegisterPayload(KindBarRelease, barReleaseCodec{})
}

// appendWriteSet encodes a demand-driven write-set:
// u32 count | count * (str Loc | u32 From | u64 Seq).
func appendWriteSet(dst []byte, ws map[string]writeStamp) []byte {
	dst = transport.AppendUint32(dst, uint32(len(ws)))
	for loc, stamp := range ws {
		dst = transport.AppendString(dst, loc)
		dst = transport.AppendUint32(dst, uint32(stamp.From))
		dst = transport.AppendUint64(dst, stamp.Seq)
	}
	return dst
}

// minWriteSetEntry is the encoded size of a write-set entry with an empty
// location name and minMember that of a barrier member: what Decoder.Count
// bounds their counts with before anything is sized by them.
const (
	minWriteSetEntry = 4 + 4 + 8
	minMember        = 4
)

func decodeWriteSet(d *transport.Decoder) map[string]writeStamp {
	n := d.Count(minWriteSetEntry)
	if n == 0 {
		return nil
	}
	ws := make(map[string]writeStamp, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		loc := d.String()
		ws[loc] = writeStamp{From: int(d.Uint32()), Seq: d.Uint64()}
	}
	return ws
}

// lockReqCodec: str Lock | u8 Mode | u32 Client | u64 ReqID.
type lockReqCodec struct{}

func (lockReqCodec) Encode(dst []byte, payload any) ([]byte, error) {
	r, ok := payload.(*lockRequest)
	if !ok {
		return dst, fmt.Errorf("syncmgr: lock-req codec: payload is %T", payload)
	}
	dst = transport.AppendString(dst, r.Lock)
	dst = append(dst, byte(r.Mode))
	dst = transport.AppendUint32(dst, uint32(r.Client))
	dst = transport.AppendUint64(dst, r.ReqID)
	return dst, nil
}

func (lockReqCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	r := &lockRequest{
		Lock:   d.String(),
		Mode:   LockMode(d.Byte()),
		Client: int(d.Uint32()),
		ReqID:  d.Uint64(),
	}
	return r, wrapErr("lock-req", d)
}

// lockGrantCodec: str Lock | u64 ReqID | u64 Epoch | u64s RelVC | writeSet.
type lockGrantCodec struct{}

func (lockGrantCodec) Encode(dst []byte, payload any) ([]byte, error) {
	g, ok := payload.(*lockGrant)
	if !ok {
		return dst, fmt.Errorf("syncmgr: lock-grant codec: payload is %T", payload)
	}
	dst = transport.AppendString(dst, g.Lock)
	dst = transport.AppendUint64(dst, g.ReqID)
	dst = transport.AppendUint64(dst, uint64(g.Epoch))
	dst = transport.AppendUint64s(dst, g.RelVC)
	dst = appendWriteSet(dst, g.WriteSet)
	return dst, nil
}

func (lockGrantCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	g := &lockGrant{
		Lock:  d.String(),
		ReqID: d.Uint64(),
		Epoch: int(d.Uint64()),
		RelVC: d.Uint64s(),
	}
	g.WriteSet = decodeWriteSet(d)
	return g, wrapErr("lock-grant", d)
}

// lockRelCodec: str Lock | u8 Mode | u32 Client | u64s Counts | writeSet.
type lockRelCodec struct{}

func (lockRelCodec) Encode(dst []byte, payload any) ([]byte, error) {
	r, ok := payload.(*lockRelease)
	if !ok {
		return dst, fmt.Errorf("syncmgr: lock-rel codec: payload is %T", payload)
	}
	dst = transport.AppendString(dst, r.Lock)
	dst = append(dst, byte(r.Mode))
	dst = transport.AppendUint32(dst, uint32(r.Client))
	dst = transport.AppendUint64s(dst, r.Counts)
	dst = appendWriteSet(dst, r.WriteSet)
	return dst, nil
}

func (lockRelCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	r := &lockRelease{
		Lock:   d.String(),
		Mode:   LockMode(d.Byte()),
		Client: int(d.Uint32()),
		Counts: d.Uint64s(),
	}
	r.WriteSet = decodeWriteSet(d)
	return r, wrapErr("lock-rel", d)
}

// barArriveCodec: u32 Client | u64 K | u64s Sent | str Group | u32 count |
// count * u32 Members.
type barArriveCodec struct{}

func (barArriveCodec) Encode(dst []byte, payload any) ([]byte, error) {
	a, ok := payload.(*barArrive)
	if !ok {
		return dst, fmt.Errorf("syncmgr: bar-arrive codec: payload is %T", payload)
	}
	dst = transport.AppendUint32(dst, uint32(a.Client))
	dst = transport.AppendUint64(dst, uint64(a.K))
	dst = transport.AppendUint64s(dst, a.Sent)
	dst = transport.AppendString(dst, a.Group)
	dst = transport.AppendUint32(dst, uint32(len(a.Members)))
	for _, m := range a.Members {
		dst = transport.AppendUint32(dst, uint32(m))
	}
	return dst, nil
}

func (barArriveCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	a := &barArrive{
		Client: int(d.Uint32()),
		K:      int(d.Uint64()),
		Sent:   d.Uint64s(),
		Group:  d.String(),
	}
	if n := d.Count(minMember); n > 0 {
		a.Members = make([]int, n)
		for i := range a.Members {
			a.Members[i] = int(d.Uint32())
		}
	}
	return a, wrapErr("bar-arrive", d)
}

// barReleaseCodec: u64 K | u64s Expected | str Group.
type barReleaseCodec struct{}

func (barReleaseCodec) Encode(dst []byte, payload any) ([]byte, error) {
	r, ok := payload.(*barRelease)
	if !ok {
		return dst, fmt.Errorf("syncmgr: bar-release codec: payload is %T", payload)
	}
	dst = transport.AppendUint64(dst, uint64(r.K))
	dst = transport.AppendUint64s(dst, r.Expected)
	dst = transport.AppendString(dst, r.Group)
	return dst, nil
}

func (barReleaseCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	r := &barRelease{
		K:        int(d.Uint64()),
		Expected: d.Uint64s(),
		Group:    d.String(),
	}
	return r, wrapErr("bar-release", d)
}

func wrapErr(kind string, d *transport.Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("syncmgr: %s codec: %w", kind, err)
	}
	return nil
}
