package dsm

import (
	"fmt"
	"math"
	"time"

	"mixedmem/internal/history"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// This file implements the SC point of the label lattice: the central-server
// realization of sequential consistency. An SC-labeled location lives at one
// owner replica — a deterministic hash of the location name, so every process
// agrees with no coordination — and every access, read or write, is a
// blocking round trip to that owner. The owner serializes requests (its
// receive loop handles them one at a time, and the self-owner fast path
// serializes through the same lock), and each access completes before its
// issuer continues, so every execution is equivalent to the interleaving the
// owner observed: the accesses are linearizable, hence sequentially
// consistent. It is the repository's one realization of sequential
// consistency: a memory whose every location is labeled SC is the classic
// central-server SC memory, and labeling only the locations that need it is
// exactly the mixed-consistency bargain — pay the round trip only where the
// program's structure cannot justify a weaker label. Experiment E8S measures
// that round trip against the weak labels' local accesses.

// Message kinds of the SC owner protocol. They are protocol traffic, not
// updates: they never count toward the barrier protocol's sent/received
// vectors, exactly like lock and barrier messages.
const (
	// KindSCRequest carries an SCRequest from a client to a location's owner.
	KindSCRequest = "sc-req"
	// KindSCReply carries an SCReply from the owner back to the client.
	KindSCReply = "sc-rep"
)

// SCRequest is one blocking access to an SC-labeled location. Op zero is a
// read; OpSet, OpAdd, and OpAddFloat are the write kinds, with the same
// semantics as broadcast updates.
type SCRequest struct {
	// ReqID matches the reply to the waiting client; unique per client, which
	// suffices because the owner replies only to the requester.
	ReqID uint64
	// From is the requesting process.
	From int
	// Op is zero for a read, or the write kind to apply.
	Op UpdateOp
	// Loc is the SC location.
	Loc string
	// Value is the written value or addend (reads ignore it).
	Value int64
}

// encodedSize is the request's wire size, byte for byte what scRequestCodec
// writes, and the Size the runtime counts for it.
func (r SCRequest) encodedSize() int {
	return transport.UvarintLen(r.ReqID) + transport.UvarintLen(uint64(r.From)) + 1 +
		transport.UvarintLen(uint64(len(r.Loc))) + len(r.Loc) + 8
}

// SCReply answers one SCRequest: the location's value after applying the
// request (for a read, its current value).
type SCReply struct {
	ReqID uint64
	Value int64
}

// encodedSize is the reply's wire size, byte for byte what scReplyCodec
// writes.
func (r SCReply) encodedSize() int { return transport.UvarintLen(r.ReqID) + 8 }

// SCOwner reports which process owns an SC-labeled location in a system of
// n processes. Exported so placement-aware callers (benchmarks, deployment
// tooling) can co-locate an SC location with its hottest writer — the
// self-owner fast path — or deliberately force the round trip.
func SCOwner(loc string, n int) int { return scOwner(loc, n) }

// scOwner maps a location to its owner process: FNV-1a over the location
// name, reduced modulo the system size. Every node computes the same owner
// with no coordination.
func scOwner(loc string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(loc); i++ {
		h ^= uint32(loc[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ReadSC reads an SC-labeled location through its owner: a blocking round
// trip (or a locked local lookup when this node is the owner). The returned
// value is the one the owner's serialization holds at the moment the request
// is served.
func (n *Node) ReadSC(loc string) int64 {
	v := n.scRoundTrip(0, loc, 0)
	n.statSCReads.Add(1)
	return v
}

// WriteSC writes an SC-labeled location through its owner, returning only
// once the owner has applied and acknowledged the write — the blocking store
// of the central-server protocol.
func (n *Node) WriteSC(loc string, value int64) { n.scApply(OpSet, loc, value) }

// scApply performs a write-kind round trip and counts it.
func (n *Node) scApply(op UpdateOp, loc string, value int64) {
	n.scRoundTrip(op, loc, value)
	n.statSCWrites.Add(1)
}

// scRoundTrip issues one SC access and blocks for the owner's reply. The
// self-owner fast path takes no messages: the scMu hold is the serialization
// point the round trip would otherwise buy.
func (n *Node) scRoundTrip(op UpdateOp, loc string, value int64) int64 {
	owner := scOwner(loc, n.n)
	if owner == n.id {
		n.scMu.Lock()
		v := n.scApplyLocked(op, loc, value)
		n.scMu.Unlock()
		return v
	}
	// An SC access is a synchronization point in program order: anything
	// parked in the outbox must not linger behind the round trip.
	n.FlushUpdates()
	req := SCRequest{
		ReqID: n.scSeq.Add(1),
		From:  n.id,
		Op:    op,
		Loc:   loc,
		Value: value,
	}
	ch := make(chan int64, 1)
	n.scMu.Lock()
	n.scWaiting[req.ReqID] = ch
	n.scMu.Unlock()
	start := time.Now()
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvSCRequest, uint8(history.LabelSC), uint16(owner), loc, req.ReqID, 0, 0)
	}
	_ = n.fabric.Send(network.Message{
		From: n.id, To: owner, Kind: KindSCRequest,
		Payload: req, Size: req.encodedSize(),
	})
	select {
	case v := <-ch:
		n.scBlocked(owner, loc, req.ReqID, time.Since(start))
		return v
	case <-n.done:
		// The node is shutting down; the reply will never arrive.
		n.scBlocked(owner, loc, req.ReqID, time.Since(start))
		return 0
	}
}

// scBlocked accounts one SC round trip's blocked interval and records the
// reply event.
func (n *Node) scBlocked(owner int, loc string, reqID uint64, d time.Duration) {
	n.statBlockedSC.Add(int64(d))
	if n.obs != nil {
		n.obs.RecordLoc(obs.EvSCReply, uint8(history.LabelSC), uint16(owner), loc, reqID, uint64(d), 0)
	}
}

// scApplyLocked applies one access to the owner's authoritative store; the
// caller holds scMu. It returns the location's value after the access.
func (n *Node) scApplyLocked(op UpdateOp, loc string, value int64) int64 {
	if n.scStore == nil {
		n.scStore = make(map[string]int64)
	}
	cur := n.scStore[loc]
	switch op {
	case OpSet:
		cur = value
	case OpAdd:
		cur += value
	case OpAddFloat:
		cur = int64(math.Float64bits(
			math.Float64frombits(uint64(cur)) + math.Float64frombits(uint64(value))))
	default:
		return cur // a read
	}
	n.scStore[loc] = cur
	return cur
}

// handleSCRequest serves one owner-side access from process from on the
// receive loop: apply, then reply on the channel the request arrived on.
// Fabric sends never block, so serving inline keeps the owner's serialization
// exactly the receive order.
func (n *Node) handleSCRequest(from int, r SCRequest) {
	n.scMu.Lock()
	v := n.scApplyLocked(r.Op, r.Loc, r.Value)
	n.scMu.Unlock()
	rep := SCReply{ReqID: r.ReqID, Value: v}
	_ = n.fabric.Send(network.Message{
		From: n.id, To: from, Kind: KindSCReply,
		Payload: rep, Size: rep.encodedSize(),
	})
}

// handleSCReply routes an owner's reply to the round trip waiting on it.
func (n *Node) handleSCReply(r SCReply) {
	n.scMu.Lock()
	ch := n.scWaiting[r.ReqID]
	delete(n.scWaiting, r.ReqID)
	n.scMu.Unlock()
	if ch != nil {
		ch <- r.Value // buffered; never blocks the receive loop
	}
}

// Wire codecs, so SC traffic crosses the tcp transport exactly like updates.
// Layouts, in updateCodec's notation:
//
//	sc-req: uvarint ReqID | uvarint From | u8 Op | uvarint len | Loc | u64 Value
//	sc-rep: uvarint ReqID | u64 Value
//
// Op is zero (a read) or a write kind; the encoder refuses anything else and so
// does decoding, together with a sender id beyond 31 bits, non-minimal varints
// and trailing bytes, so the only input that decodes to a value is its
// encoding. Varints carry the request id, sender and length the program fixes,
// the u64 the value it computed.

type scRequestCodec struct{}

// validSCOp reports whether op is one an SC request can carry.
func validSCOp(op UpdateOp) bool { return op == 0 || op >= OpSet && op <= OpAddFloat }

func (scRequestCodec) Encode(dst []byte, payload any) ([]byte, error) {
	r, ok := payload.(SCRequest)
	if !ok {
		return dst, fmt.Errorf("dsm: sc-req codec: payload is %T", payload)
	}
	if r.From < 0 || r.From > maxFrom || !validSCOp(r.Op) {
		return dst, fmt.Errorf("dsm: sc-req codec: op %d from sender %d", r.Op, r.From)
	}
	dst = transport.AppendUvarint(dst, r.ReqID)
	dst = transport.AppendUvarint(dst, uint64(r.From))
	dst = append(dst, byte(r.Op))
	dst = transport.AppendUvarintString(dst, r.Loc)
	return transport.AppendUint64(dst, uint64(r.Value)), nil
}

func (scRequestCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	r := SCRequest{ReqID: d.Uvarint()}
	from, err := parseFrom(d)
	if err == nil {
		r.From, r.Op = from, UpdateOp(d.Byte())
		if d.Err() == nil && !validSCOp(r.Op) {
			err = fmt.Errorf("op %d", r.Op)
		}
	}
	if err == nil {
		loc := d.UvarintBytes()
		r.Value = int64(d.Uint64())
		if err = end(d); err == nil {
			r.Loc = string(loc)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dsm: sc-req codec: %w", err)
	}
	return r, nil
}

type scReplyCodec struct{}

func (scReplyCodec) Encode(dst []byte, payload any) ([]byte, error) {
	r, ok := payload.(SCReply)
	if !ok {
		return dst, fmt.Errorf("dsm: sc-rep codec: payload is %T", payload)
	}
	dst = transport.AppendUvarint(dst, r.ReqID)
	return transport.AppendUint64(dst, uint64(r.Value)), nil
}

func (scReplyCodec) Decode(data []byte) (any, error) {
	d := transport.NewDecoder(data)
	r := SCReply{ReqID: d.Uvarint()}
	r.Value = int64(d.Uint64())
	if err := end(d); err != nil {
		return nil, fmt.Errorf("dsm: sc-rep codec: %w", err)
	}
	return r, nil
}

func init() {
	transport.RegisterPayload(KindSCRequest, scRequestCodec{})
	transport.RegisterPayload(KindSCReply, scReplyCodec{})
}
