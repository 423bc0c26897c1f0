package syncmgr

import (
	"slices"
	"strings"
	"sync"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/network"
	"mixedmem/internal/obs"
)

// LockMode distinguishes read and write lock requests.
type LockMode int

// Lock request modes.
const (
	ReadMode LockMode = iota + 1
	WriteMode
)

// The three lock payloads travel as pointers: *lockRequest, *lockGrant and
// *lockRelease, taken from the sender's slab (slab.go), filled, sent, and
// never written again — the ownership rule of dsm's *Update. A receiver may
// read one for as long as it likes and must not write through it.

// lockRequest is the payload of a KindLockReq message.
type lockRequest struct {
	Lock  string
	Mode  LockMode
	ReqID uint64
}

// lockGrant is the payload of a KindLockGrant message, sent in answer to the
// request its ReqID names. Depending on the propagation mode it carries the
// release vector (lazy) or the accumulated write-set (demand-driven) the
// acquirer must honor before reading.
type lockGrant struct {
	ReqID uint64
	Epoch int
	// RelVC, in lazy mode, is the elementwise maximum of the received
	// vectors reported by previous unlockers: the acquirer waits until, for
	// each process, the update with this sequence number has settled.
	RelVC []uint64
	// WriteSet, in demand-driven mode, names for each location written in
	// previous critical sections the update the acquirer must see before
	// reading it.
	WriteSet []writeStamp
}

// writeStamp names the update (From, Seq) that last wrote Loc. A write-set is
// a slice of them sorted by location, with no location twice.
type writeStamp struct {
	Loc  string
	From int
	Seq  uint64
}

// lockRelease is the payload of a KindLockRel message.
type lockRelease struct {
	Lock string
	Mode LockMode
	// Counts is the unlocker's received vector (lazy mode): per process, the
	// sequence number of the last update its PRAM view applied.
	Counts []uint64
	// WriteSet lists locations written in the critical section
	// (demand-driven mode, write unlocks only).
	WriteSet []writeStamp
}

// Manager is the lock-manager state machine of Section 6. It runs on the
// node whose dispatcher routes KindLockReq and KindLockRel to it; all its
// work happens in those handlers and consists only of state updates and
// non-blocking sends.
type Manager struct {
	d    *Dispatcher
	mode PropagationMode

	mu    sync.Mutex
	locks map[string]*lockState
	// states is the slab new locks' states are taken from; grants and vecs
	// are the slabs sent grants, their release vectors and the locks' own
	// accumulated release vectors are taken from.
	states slab[lockState]
	grants slab[lockGrant]
	vecs   vecSlab[uint64]
}

type lockState struct {
	// epoch is the last assigned epoch; epochIsRead tells whether the
	// current epoch is a shared read epoch.
	epoch       int
	epochIsRead bool
	// started tracks whether any epoch has been assigned yet.
	started bool
	// writer holds the current write holder, or -1.
	writer int
	// readers holds the current read holders; made by the first read grant.
	readers map[int]bool
	// queue holds the waiting requests in arrival order. Admitted requests
	// are removed by sliding the rest down, so the array is reused; it
	// starts in queue0, which holds an uncontended lock's one request.
	queue  []waiting
	queue0 [2]waiting
	// relVC accumulates unlockers' received vectors (lazy mode).
	relVC []uint64
	// writeSet accumulates critical-section write-sets (demand mode). Each
	// release that carries one replaces it with a merged copy, so grants
	// share it as it stands and it is never written once sent.
	writeSet []writeStamp
}

// waiting is a queued request and the process that sent it.
type waiting struct {
	client int
	mode   LockMode
	reqID  uint64
}

// NewManager creates a lock manager hosted on d's node and registers its
// handlers there.
func NewManager(d *Dispatcher, mode PropagationMode) *Manager {
	m := &Manager{d: d, mode: mode, locks: make(map[string]*lockState)}
	d.Register(KindLockReq, m.onRequest)
	d.Register(KindLockRel, m.onRelease)
	return m
}

func (m *Manager) state(name string) *lockState {
	st, ok := m.locks[name]
	if !ok {
		st = m.states.next()
		st.writer = -1
		st.queue = st.queue0[:0]
		if m.mode == Lazy {
			st.relVC = m.vecs.next(m.d.tr.Nodes())
		}
		m.locks[name] = st
	}
	return st
}

// The handlers send their grants under the manager lock: a send never blocks
// (the transport contract, and a grant to the manager's own node only fills
// its client's one-slot waiter), and holding the lock is what lets a grant be
// built straight into the slab with no per-call list of what to send.

func (m *Manager) onRequest(msg network.Message) {
	req, ok := msg.Payload.(*lockRequest)
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(req.Lock)
	st.queue = append(st.queue, waiting{client: msg.From, mode: req.Mode, reqID: req.ReqID})
	m.admitLocked(st)
}

func (m *Manager) onRelease(msg network.Message) {
	rel, ok := msg.Payload.(*lockRelease)
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(rel.Lock)
	switch rel.Mode {
	case WriteMode:
		if st.writer == msg.From {
			st.writer = -1
		}
	case ReadMode:
		delete(st.readers, msg.From)
	}
	if m.mode == Lazy {
		for j, c := range rel.Counts {
			if j < len(st.relVC) && c > st.relVC[j] {
				st.relVC[j] = c
			}
		}
	}
	if m.mode == DemandDriven && len(rel.WriteSet) > 0 {
		st.writeSet = mergeWriteSets(st.writeSet, rel.WriteSet)
	}
	m.admitLocked(st)
}

// mergeWriteSets returns the union of two write-sets in a new slice, sorted
// like both. Where both name a location, add's stamp wins unless it is an
// older write of the same process.
func mergeWriteSets(acc, add []writeStamp) []writeStamp {
	out := make([]writeStamp, 0, len(acc)+len(add))
	for len(acc) > 0 && len(add) > 0 {
		switch a, b := acc[0], add[0]; {
		case a.Loc < b.Loc:
			out, acc = append(out, a), acc[1:]
		case a.Loc > b.Loc:
			out, add = append(out, b), add[1:]
		default:
			if b.Seq > a.Seq || b.From != a.From {
				a = b
			}
			out, acc, add = append(out, a), acc[1:], add[1:]
		}
	}
	return append(append(out, acc...), add...)
}

// admitLocked grants queued requests FIFO: a write needs the lock free; a
// read needs no writer and is granted together with consecutive reads, which
// share one epoch (Section 3.1.1's read epochs).
func (m *Manager) admitLocked(st *lockState) {
	admitted := 0
scan:
	for admitted < len(st.queue) {
		head := &st.queue[admitted]
		switch head.mode {
		case WriteMode:
			if st.writer >= 0 || len(st.readers) > 0 {
				break scan
			}
			st.writer = head.client
			st.epoch = m.nextEpochLocked(st, false)
			m.grantLocked(st, head)
			admitted++
			break scan
		case ReadMode:
			if st.writer >= 0 {
				break scan
			}
			if !st.epochIsRead || !st.started {
				st.epoch = m.nextEpochLocked(st, true)
			}
			if st.readers == nil {
				st.readers = make(map[int]bool)
			}
			st.readers[head.client] = true
			m.grantLocked(st, head)
			admitted++
		default:
			admitted++
		}
	}
	st.queue = st.queue[:copy(st.queue, st.queue[admitted:])]
}

func (m *Manager) nextEpochLocked(st *lockState, read bool) int {
	if st.started {
		st.epoch++
	}
	st.started = true
	st.epochIsRead = read
	return st.epoch
}

// grantLocked builds req's grant in the slab and sends it.
func (m *Manager) grantLocked(st *lockState, req *waiting) {
	g := m.grants.next()
	*g = lockGrant{ReqID: req.reqID, Epoch: st.epoch}
	switch m.mode {
	case Lazy:
		g.RelVC = m.vecs.next(len(st.relVC))
		copy(g.RelVC, st.relVC)
	case DemandDriven:
		g.WriteSet = st.writeSet
	}
	m.d.send(network.Message{
		From: m.d.self, To: req.client, Kind: KindLockGrant,
		Payload: g, Size: g.size(),
	})
}

// ClientStats counts a lock client's activity. The JSON tags are its keys in
// the metrics registry's "sync" section.
type ClientStats struct {
	Acquires uint64 `json:"lockAcquires"`
	// AcquireWait is total time blocked waiting for grants plus, in lazy
	// mode, waiting for the release vector's updates.
	AcquireWait time.Duration `json:"lockAcquireNs"`
	// ReleaseWait is total time blocked in eager flush rounds.
	ReleaseWait time.Duration `json:"lockReleaseNs"`
}

// Client is the per-process side of the lock protocol. One Client serves all
// locks managed by the manager it points at.
type Client struct {
	node    *dsm.Node
	d       *Dispatcher
	manager int
	mode    PropagationMode

	mu      sync.Mutex
	nextReq uint64
	grants  map[uint64]chan *lockGrant
	// parked recycles the channels in grants; reqs and rels are the slabs
	// sent requests and releases are taken from, a release with room for its
	// sequence vector, and vecs the slab of the vectors too wide for that.
	parked waiters[*lockGrant]
	reqs   slab[lockRequest]
	rels   slab[cell[lockRelease]]
	vecs   vecSlab[uint64]
	// flushWait collects flush acknowledgements for eager unlocks.
	flushAcks chan struct{}
	// marks tracks the write-log position at each write-lock acquire, per
	// lock, to delimit the critical section's write-set (demand-driven mode
	// only: no other mode reads the node's write log, so no other mode turns
	// it on).
	marks map[string]int
	stats ClientStats
}

// NewClient creates the client side for node, pointing at the manager
// process, and registers its handlers on d, the node's dispatcher.
func NewClient(node *dsm.Node, d *Dispatcher, manager int, mode PropagationMode) *Client {
	ackBuf := node.N()
	if ackBuf < 16 {
		ackBuf = 16
	}
	c := &Client{
		node:      node,
		d:         d,
		manager:   manager,
		mode:      mode,
		grants:    make(map[uint64]chan *lockGrant),
		flushAcks: make(chan struct{}, ackBuf),
		marks:     make(map[string]int),
	}
	d.Register(KindLockGrant, c.onGrant)
	d.Register(KindFlush, c.onFlush)
	d.Register(KindFlushAck, c.onFlushAck)
	return c
}

func (c *Client) onGrant(msg network.Message) {
	g, ok := msg.Payload.(*lockGrant)
	if !ok {
		return
	}
	c.mu.Lock()
	ch := c.grants[g.ReqID]
	delete(c.grants, g.ReqID)
	c.mu.Unlock()
	if ch != nil {
		ch <- g
	}
}

// onFlush acknowledges a flush probe. The fabric's FIFO channels guarantee
// that every update the flusher sent before the probe has already been
// applied here, so the acknowledgement certifies receipt (Section 6's eager
// implementation).
func (c *Client) onFlush(msg network.Message) {
	c.d.send(network.Message{From: c.d.self, To: msg.From, Kind: KindFlushAck})
}

func (c *Client) onFlushAck(network.Message) {
	select {
	case c.flushAcks <- struct{}{}:
	default:
	}
}

// acquire sends a request and blocks until the grant arrives, then applies
// the mode's visibility work.
func (c *Client) acquire(name string, mode LockMode) *lockGrant {
	c.mu.Lock()
	c.nextReq++
	req := c.reqs.next()
	*req = lockRequest{Lock: name, Mode: mode, ReqID: c.nextReq}
	ch := c.parked.get()
	c.grants[req.ReqID] = ch
	c.mu.Unlock()

	// A request is a point the process blocks at, and the holder it waits for
	// may be waiting for what this process wrote, in a critical section it is
	// still in, say: nothing may stay parked in the outbox behind it.
	c.node.FlushUpdates()
	start := time.Now()
	c.d.send(network.Message{
		From: c.d.self, To: c.manager, Kind: KindLockReq,
		Payload: req, Size: req.size(),
	})
	g := <-ch
	switch c.mode {
	case Lazy:
		// Wait for every update the release vector covers to settle: a
		// settled update has been received, and once they are received the
		// causal view drains at once (their dependencies are bounded by the
		// same vector), so causal reads that follow proceed safely.
		c.node.WaitCausalApplied(g.RelVC)
	case DemandDriven:
		// Invalidate locally; reads of these locations will block until
		// the stamped updates arrive.
		for _, stamp := range g.WriteSet {
			c.node.Invalidate(stamp.Loc, stamp.From, stamp.Seq)
		}
	}
	wait := time.Since(start)
	c.mu.Lock()
	c.stats.Acquires++
	c.stats.AcquireWait += wait
	c.parked.put(ch)
	c.mu.Unlock()
	if tr := c.node.Tracer(); tr != nil {
		var wmode uint64
		if mode == WriteMode {
			wmode = 1
		}
		tr.RecordLoc(obs.EvLockAcquire, 0, uint16(c.manager), name,
			uint64(g.Epoch), uint64(wait), wmode)
	}
	return g
}

// release performs the mode's unlock work and notifies the manager.
func (c *Client) release(name string, mode LockMode, writeSet []writeStamp) {
	// Lock release is a synchronization boundary: flush the update outbox
	// first, whatever the mode — closing a write lock's hold flushes it.
	// Eager's flush probe certifies receipt only of updates that FIFO-precede
	// it; Lazy's received vector and DemandDriven's write-set stamps both
	// promise the next holder it can wait for updates that must therefore
	// already be on the wire.
	if mode == WriteMode {
		c.node.Unhold()
	} else {
		c.node.FlushUpdates()
	}
	c.mu.Lock()
	e := c.rels.next()
	rel := &e.p
	*rel = lockRelease{Lock: name, Mode: mode}
	if c.mode == Lazy {
		// Filled in below, in the release's own cell when it fits.
		if n := c.node.N(); n <= cellWords {
			rel.Counts = e.words[:0:n]
		} else {
			rel.Counts = c.vecs.next(n)[:0]
		}
	}
	c.mu.Unlock()
	switch c.mode {
	case Eager:
		// Broadcast a flush probe and wait for all acknowledgements before
		// releasing: every process has then applied the critical section's
		// updates.
		start := time.Now()
		n := c.node.N()
		_ = c.d.tr.Broadcast(c.d.self, KindFlush, nil, 0)
		for i := 0; i < n-1; i++ {
			<-c.flushAcks
		}
		c.mu.Lock()
		c.stats.ReleaseWait += time.Since(start)
		c.mu.Unlock()
	case Lazy:
		rel.Counts = c.node.ReceivedSeqs(rel.Counts)
	case DemandDriven:
		rel.WriteSet = writeSet
	}
	c.d.send(network.Message{
		From: c.d.self, To: c.manager, Kind: KindLockRel,
		Payload: rel, Size: rel.size(),
	})
	if tr := c.node.Tracer(); tr != nil {
		var wmode uint64
		if mode == WriteMode {
			wmode = 1
		}
		tr.RecordLoc(obs.EvLockRelease, 0, uint16(c.manager), name, 0, 0, wmode)
	}
}

// WLock acquires the write lock on name, blocking until granted and until
// the propagation mode's visibility condition holds, and returns the grant's
// epoch. It opens a hold on the node (dsm.Node.Hold), which WUnlock closes: the
// critical section's writes leave as one batch per destination, since they
// need only reach the next holder by its acquire (Section 6).
func (c *Client) WLock(name string) int {
	g := c.acquire(name, WriteMode)
	c.node.Hold()
	if c.mode == DemandDriven {
		// The mark is taken under c.mu so that closeWriteSet, trimming on
		// another thread, either sees it or trims below it.
		c.mu.Lock()
		c.marks[name] = c.node.WriteMark()
		c.mu.Unlock()
	}
	return g.Epoch
}

// WUnlock releases the write lock on name.
func (c *Client) WUnlock(name string) {
	var ws []writeStamp
	if c.mode == DemandDriven {
		ws = c.closeWriteSet(name)
	}
	c.release(name, WriteMode, ws)
}

// closeWriteSet returns the write-set of the critical section on name that is
// ending — the last of the node's own writes to each location since WLock's
// mark, sorted by location — and trims the node's write log below the oldest
// mark any still-held lock needs, bounding its memory.
func (c *Client) closeWriteSet(name string) []writeStamp {
	c.mu.Lock()
	mark := c.marks[name]
	delete(c.marks, name)
	oldest := c.node.WriteMark()
	for _, m := range c.marks {
		if m < oldest {
			oldest = m
		}
	}
	c.mu.Unlock()
	records := c.node.WritesSince(mark)
	var ws []writeStamp
	if len(records) > 0 {
		ws = make([]writeStamp, len(records))
		for i, rec := range records {
			ws[i] = writeStamp{Loc: rec.Loc, From: c.node.ID(), Seq: rec.Seq}
		}
		// The records are in write order, so a stable sort leaves each
		// location's last write at the end of its run.
		slices.SortStableFunc(ws, func(a, b writeStamp) int { return strings.Compare(a.Loc, b.Loc) })
		last := ws[:0]
		for i, w := range ws {
			if i+1 == len(ws) || ws[i+1].Loc != w.Loc {
				last = append(last, w)
			}
		}
		ws = last
	}
	c.node.TrimWriteLog(oldest)
	return ws
}

// RLock acquires a read lock on name and returns the grant's epoch, which
// concurrent readers share.
func (c *Client) RLock(name string) int { return c.acquire(name, ReadMode).Epoch }

// RUnlock releases a read lock on name.
func (c *Client) RUnlock(name string) { c.release(name, ReadMode, nil) }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
