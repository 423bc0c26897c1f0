package syncmgr

import (
	"sync"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// barArrive is the payload a process sends to the barrier manager on
// reaching barrier k: Sent[j] is the sequence number of the last update it
// sent process j, the vector of Section 6's barrier implementation. Like the
// lock payloads it travels as a pointer into its sender's slab and is never
// written again once sent; so does barRelease.
type barArrive struct {
	K    int
	Sent []uint64
	// Group names the barrier object; "" is the global barrier over all
	// processes. Members lists the participating processes for subset
	// barriers (ignored for the global barrier).
	Group   string
	Members []int
}

// barRelease is the manager's reply: Expected[j] is the sequence number of the
// last update process j sent the recipient, which must settle at the
// recipient before it proceeds past the barrier.
type barRelease struct {
	K        int
	Expected []uint64
	Group    string
}

// BarrierManager is the barrier-manager state machine of Section 6: each
// process sends the vector of the last sequence numbers it sent each
// destination on arrival; when all have arrived the manager transposes the
// vectors and releases every process with the vector it must wait for.
type BarrierManager struct {
	d       *Dispatcher
	n       int
	members int

	mu      sync.Mutex
	pending map[barKey]*barRound
	// idle holds finished rounds for reuse; rels and vecs are the slabs sent
	// releases and their Expected vectors are taken from.
	idle []*barRound
	rels slab[barRelease]
	vecs vecSlab[uint64]
}

type barKey struct {
	group string
	k     int
}

// barRound is one barrier in progress: sent[i] is the vector client i arrived
// with (nil until it does), arrived how many have. A finished round goes back
// on the idle list with every slot nil again.
type barRound struct {
	sent    [][]uint64
	arrived int
}

// NewBarrierManager creates a barrier manager hosted on d's node and
// registers its handler there. members is the number of processes
// participating in each barrier (the paper notes barriers can also be defined
// for subsets; participants must agree).
func NewBarrierManager(d *Dispatcher, members int) *BarrierManager {
	m := &BarrierManager{
		d:       d,
		n:       d.tr.Nodes(),
		members: members,
		pending: make(map[barKey]*barRound),
	}
	d.Register(KindBarArrive, m.onArrive)
	return m
}

// noCounts stands in for the nil vector of an arrival that reported no
// counts, so a nil slot of barRound.sent always means "not arrived".
var noCounts = []uint64{}

// onArrive records one arrival and, when it completes its round, releases
// every participant. It sends under the manager lock, as the lock manager
// does and for the same reason; a release to the manager's own node only
// fills its client's one-slot waiter.
func (m *BarrierManager) onArrive(msg network.Message) {
	arr, ok := msg.Payload.(*barArrive)
	if !ok {
		return
	}
	need := m.members
	if arr.Group != "" {
		need = len(arr.Members)
	}
	key := barKey{arr.Group, arr.K}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.pending[key]
	if r == nil {
		if n := len(m.idle); n > 0 {
			r, m.idle = m.idle[n-1], m.idle[:n-1]
		} else {
			r = &barRound{sent: make([][]uint64, m.n)}
		}
		m.pending[key] = r
	}
	if r.sent[msg.From] == nil {
		r.arrived++
	}
	r.sent[msg.From] = arr.Sent
	if arr.Sent == nil {
		r.sent[msg.From] = noCounts
	}
	if r.arrived < need {
		return
	}
	delete(m.pending, key)

	// Transpose: client i must wait for sent[j][i] updates from each j.
	for client, own := range r.sent {
		if own == nil {
			continue
		}
		rel := m.rels.next()
		*rel = barRelease{K: arr.K, Group: arr.Group, Expected: m.vecs.next(m.n)}
		for j, vec := range r.sent {
			if client < len(vec) {
				rel.Expected[j] = vec[client]
			}
		}
		m.d.send(network.Message{
			From: m.d.self, To: client, Kind: KindBarRelease,
			Payload: rel, Size: rel.size(),
		})
	}
	clear(r.sent)
	r.arrived = 0
	m.idle = append(m.idle, r)
}

// BarrierStats counts a barrier client's activity. The JSON tags are its keys
// in the metrics registry's "sync" section.
type BarrierStats struct {
	Barriers uint64 `json:"barriers"`
	// Wait is the total time blocked at barriers: waiting for the release
	// message plus waiting for the covered updates to settle.
	Wait time.Duration `json:"barrierWaitNs"`
}

// BarrierClient is the per-process side of the barrier protocol.
type BarrierClient struct {
	node    *dsm.Node
	d       *Dispatcher
	manager int

	mu       sync.Mutex
	nextK    int
	groupK   map[string]int
	releases map[barKey]chan *barRelease
	// parked recycles the channels in releases; arrs and vecs are the slabs
	// sent arrivals and their Sent vectors are taken from.
	parked waiters[*barRelease]
	arrs   slab[barArrive]
	vecs   vecSlab[uint64]
	stats  BarrierStats
}

// NewBarrierClient creates the client side for node, pointing at the
// manager process, and registers its handler on d, the node's dispatcher.
func NewBarrierClient(node *dsm.Node, d *Dispatcher, manager int) *BarrierClient {
	c := &BarrierClient{
		node:     node,
		d:        d,
		manager:  manager,
		nextK:    1,
		groupK:   make(map[string]int),
		releases: make(map[barKey]chan *barRelease),
	}
	d.Register(KindBarRelease, c.onRelease)
	return c
}

func (c *BarrierClient) onRelease(msg network.Message) {
	rel, ok := msg.Payload.(*barRelease)
	if !ok {
		return
	}
	key := barKey{rel.Group, rel.K}
	c.mu.Lock()
	ch := c.releases[key]
	delete(c.releases, key)
	c.mu.Unlock()
	if ch != nil {
		ch <- rel
	}
}

// Barrier blocks until every participating process has arrived at the k-th
// barrier and all updates sent before the barrier have been applied locally
// to both views. Barrier indices are implicit: the i-th call on every
// process is barrier i.
//
// The paper notes writes after a barrier need not block; this implementation
// blocks the whole process at the barrier, which is a stronger (still
// correct) realization and matches how the Figure 2/4 programs use barriers.
// It returns the barrier's index.
func (c *BarrierClient) Barrier() int {
	c.mu.Lock()
	k := c.nextK
	c.nextK++
	c.mu.Unlock()
	c.barrier("", k, nil)
	return k
}

// BarrierGroup blocks until every process in members arrives at the named
// group's next barrier — the paper's subset barrier ("restricting the range
// of the universal quantification to the subset"). All members must call
// BarrierGroup with the same name and member set; the i-th call on each
// member is the group's i-th barrier. The vector exchange covers only
// the members: updates from non-members are not awaited. It returns the
// barrier's index within the group.
func (c *BarrierClient) BarrierGroup(name string, members []int) int {
	if name == "" {
		return c.Barrier()
	}
	c.mu.Lock()
	c.groupK[name]++
	k := c.groupK[name]
	c.mu.Unlock()
	c.barrier(name, k, members)
	return k
}

func (c *BarrierClient) barrier(group string, k int, members []int) {
	n := c.node.N()
	c.mu.Lock()
	ch := c.parked.get()
	c.releases[barKey{group, k}] = ch
	arr := c.arrs.next()
	sent := c.vecs.next(n)[:0]
	var masked []uint64
	if group != "" {
		masked = c.vecs.next(n)
	}
	c.mu.Unlock()

	start := time.Now()
	if tr := c.node.Tracer(); tr != nil {
		tr.RecordLoc(obs.EvBarrierEnter, 0, 0, group, uint64(k), 0, 0)
	}
	// Barrier arrival is a synchronization boundary: SentSeqs flushes the
	// node's update outbox and snapshots the vector under one lock, so every
	// update the reported vector promises is on the wire before the manager
	// can release anyone against it.
	sent = c.node.SentSeqs(sent)
	if group != "" {
		// Subset barrier: only members' entries participate.
		for _, mbr := range members {
			if mbr >= 0 && mbr < len(sent) {
				masked[mbr] = sent[mbr]
			}
		}
		sent = masked
	}
	*arr = barArrive{K: k, Sent: sent, Group: group, Members: members}
	c.d.send(network.Message{
		From: c.d.self, To: c.manager, Kind: KindBarArrive,
		Payload: arr, Size: arr.size(),
	})
	rel := <-ch
	// All prior-phase updates must have settled before this phase's reads. A
	// settled update has been received, and once every update the vector
	// covers has been received the causal view can always drain fully
	// (dependencies of pre-barrier updates are themselves pre-barrier).
	c.node.WaitCausalApplied(rel.Expected)

	wait := time.Since(start)
	c.mu.Lock()
	c.stats.Barriers++
	c.stats.Wait += wait
	c.parked.put(ch)
	c.mu.Unlock()
	if tr := c.node.Tracer(); tr != nil {
		tr.RecordLoc(obs.EvBarrierExit, 0, 0, group, uint64(k), uint64(wait), 0)
	}
}

// Stats returns a snapshot of the client's counters.
func (c *BarrierClient) Stats() BarrierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
