// Package consensus implements a leader-based Byzantine fault-tolerant
// state-machine-replication protocol in the PBFT family, serving as the
// paper's consensus baseline (BFT-SMaRt, §VI-A). A payment system built on
// it totally orders all payments — exactly the design Astro argues is
// unnecessary — and inherits the leader bottleneck and view-change
// fragility the robustness experiments (§VI-D) quantify.
//
// Protocol outline:
//
//   - Clients submit each payment to all replicas (the BFT-SMaRt client
//     design) and accept a payment as executed after f+1 matching
//     confirmations.
//   - The leader of the current view assembles batches and sends
//     PRE-PREPARE(view, seq, batch); replicas respond with PREPARE to all;
//     2f+1 matching PREPAREs trigger COMMIT to all; 2f+1 COMMITs make the
//     batch committed, and batches execute in sequence order.
//   - Non-leaders start a timer per pending request; on expiry they
//     broadcast VIEW-CHANGE carrying their prepared-but-unexecuted
//     batches. The leader of the next view collects 2f+1 VIEW-CHANGE
//     messages, waits out a configurable synchronization cost (modeling
//     state transfer, which grows with system size), and emits NEW-VIEW
//     re-proposing surviving batches.
//
// Execution reuses the core approve/settle engine with Astro I semantics
// (direct beneficiary credit), since total order subsumes per-xlog order.
package consensus

import (
	"errors"
	"sync"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
)

// Config assembles one consensus replica.
type Config struct {
	// Self is this replica's identity.
	Self types.ReplicaID
	// Replicas lists all replicas; the leader of view v is
	// Replicas[v mod len(Replicas)].
	Replicas []types.ReplicaID
	// F is the Byzantine fault threshold; len(Replicas) >= 3F+1.
	F int
	// Mux is the node's transport multiplexer; the replica registers on
	// transport.ChanConsensus and transport.ChanPayment, and its timers
	// run on ChanConsensus's flow (Mux.After).
	Mux *transport.Mux
	// Genesis seeds client balances, as in core.Config.
	Genesis func(types.ClientID) types.Amount

	// BatchSize caps payments per proposal. Default 256.
	BatchSize int
	// BatchDelay bounds batch assembly latency at the leader. Default 5ms.
	BatchDelay time.Duration
	// RequestTimeout is how long a replica waits for a pending request to
	// execute before suspecting the leader and starting a view change.
	// The paper discusses the tension in tuning it (§VI-D): too tight
	// causes spurious view changes, too loose prolongs outages. Default 2s.
	RequestTimeout time.Duration
	// ViewChangeSyncCost is the extra delay the incoming leader spends
	// synchronizing state before emitting NEW-VIEW, modeling the
	// view-change work that grows with system size (the paper observes a
	// few seconds at N=49 and ~20s at N=100). Default: 40ms per replica.
	ViewChangeSyncCost time.Duration
	// Auth enables MAC authentication on replica-to-replica channels,
	// matching BFT-SMaRt's MAC-based channel authentication (the same
	// scheme Astro I uses). Optional.
	Auth *crypto.LinkAuthenticator
	// Verifier is the worker pool used to check inbound link MACs off the
	// protocol lock; handlers re-enter through a completion callback.
	// PBFT-family vote counting is insensitive to message reordering (the
	// network reorders anyway), so asynchronous completion is safe. Nil
	// selects the shared process-wide pool (verifier.Default).
	Verifier *verifier.Verifier
}

// Errors returned by New.
var (
	ErrConfigMux    = errors.New("consensus: config requires Mux")
	ErrConfigQuorum = errors.New("consensus: fewer than 3f+1 replicas")
)

func (c *Config) normalize() error {
	if c.Mux == nil {
		return ErrConfigMux
	}
	if len(c.Replicas) < 3*c.F+1 {
		return ErrConfigQuorum
	}
	if c.Genesis == nil {
		c.Genesis = func(types.ClientID) types.Amount { return 0 }
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 5 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.ViewChangeSyncCost < 0 {
		c.ViewChangeSyncCost = 0
	} else if c.ViewChangeSyncCost == 0 {
		c.ViewChangeSyncCost = time.Duration(len(c.Replicas)) * 40 * time.Millisecond
	}
	if c.Verifier == nil {
		c.Verifier = verifier.Default()
	}
	return nil
}

func (c *Config) quorum() int { return 2*c.F + 1 }

// leaderOf returns the leader replica of a view.
func (c *Config) leaderOf(view uint64) types.ReplicaID {
	return c.Replicas[int(view%uint64(len(c.Replicas)))]
}

// entry tracks one proposal slot through the three phases. Votes are
// recorded per replica with the digest they endorsed: messages may arrive
// before the proposal itself (the network reorders), so votes are kept
// and counted against the proposed digest once it is known.
type entry struct {
	view     uint64
	digest   types.Digest
	batch    []types.Payment
	prepares map[types.ReplicaID]types.Digest
	commits  map[types.ReplicaID]types.Digest
	// phase flags
	preprepared bool
	prepared    bool // sent COMMIT
	committed   bool
	executed    bool
}

// votesFor counts votes endorsing the given digest.
func votesFor(votes map[types.ReplicaID]types.Digest, d types.Digest) int {
	n := 0
	for _, vd := range votes {
		if vd == d {
			n++
		}
	}
	return n
}

// pendingReq is a client request awaiting execution.
type pendingReq struct {
	payment types.Payment
	arrived time.Time
}

// Replica is one node of the consensus-based payment system.
type Replica struct {
	cfg   Config
	state *core.State

	// mu guards all protocol state. The mux dispatches each channel on
	// its own flow (consensus and client traffic run concurrently), so
	// handlers genuinely contend on this lock.
	mu           sync.Mutex
	view         uint64
	inViewChange bool
	nextSeq      uint64 // next sequence the leader assigns
	execUpTo     uint64 // highest executed sequence
	log          map[uint64]*entry
	pending      map[types.PaymentID]*pendingReq
	pendingOrder []types.PaymentID
	vcVotes      map[uint64]map[types.ReplicaID]*viewChangeMsg
	vcStarted    time.Time
	batchTimer   bool

	executedTotal  atomicU64
	viewChangesRun atomicU64
}

// New creates a consensus replica and registers its handlers.
func New(cfg Config) (*Replica, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:     cfg,
		state:   core.NewState(core.AstroI, cfg.Genesis, nil),
		log:     make(map[uint64]*entry),
		pending: make(map[types.PaymentID]*pendingReq),
		vcVotes: make(map[uint64]map[types.ReplicaID]*viewChangeMsg),
	}
	cfg.Mux.Register(transport.ChanConsensus, r.onMessage)
	cfg.Mux.Register(transport.ChanPayment, r.onClientMsg)
	r.scheduleTick()
	return r, nil
}

// ID returns the replica identity.
func (r *Replica) ID() types.ReplicaID { return r.cfg.Self }

// ExecutedCount returns the number of payments executed, for throughput
// timelines.
func (r *Replica) ExecutedCount() uint64 { return r.executedTotal.Load() }

// ViewChanges returns how many view changes this replica has completed.
func (r *Replica) ViewChanges() uint64 { return r.viewChangesRun.Load() }

// Balance returns a client's balance in the replicated state.
func (r *Replica) Balance(c types.ClientID) types.Amount {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Balance(c)
}

// View returns the current view number (for diagnostics).
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

func (r *Replica) isLeader() bool { return r.cfg.leaderOf(r.view) == r.cfg.Self }

// after arms a timer on ChanConsensus's flow, so fn serializes with the
// protocol messages it inspects; fn runs under r.mu.
func (r *Replica) after(d time.Duration, fn func()) {
	r.cfg.Mux.After(d, transport.ChanConsensus, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		fn()
	})
}

func (r *Replica) scheduleTick() {
	interval := r.cfg.RequestTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	r.after(interval, r.onTick)
}

// broadcast sends msg to every other replica. Every phase records this
// replica's own vote directly, so it sends itself nothing.
func (r *Replica) broadcast(msg []byte) {
	for _, p := range r.cfg.Replicas {
		if p == r.cfg.Self {
			continue
		}
		out := msg
		if r.cfg.Auth != nil {
			tag := r.cfg.Auth.Tag(p, msg)
			buf := make([]byte, 0, len(msg)+len(tag))
			buf = append(buf, msg...)
			buf = append(buf, tag...)
			out = buf
		}
		_ = r.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanConsensus, out)
	}
}

// ---- client side ----

// onClientMsg accepts request submissions (clients send to all replicas).
func (r *Replica) onClientMsg(from transport.NodeID, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := decodeClientSubmit(payload)
	if !ok {
		return
	}
	if transport.ClientNode(p.Spender) != from {
		return // spoofed submission
	}
	id := p.ID()
	if _, dup := r.pending[id]; dup {
		return
	}
	if r.state.NextSeq(p.Spender) > p.Seq {
		return // already executed
	}
	r.pending[id] = &pendingReq{payment: p, arrived: time.Now()}
	r.pendingOrder = append(r.pendingOrder, id)
	if r.isLeader() && !r.inViewChange {
		r.maybePropose(false)
	}
}

// maybePropose assembles and pre-prepares a batch if warranted.
// force proposes any non-empty batch (timer path); otherwise a full batch
// is required.
func (r *Replica) maybePropose(force bool) {
	avail := r.unproposedCount()
	if avail == 0 {
		return
	}
	if avail < r.cfg.BatchSize && !force {
		if !r.batchTimer {
			r.batchTimer = true
			r.after(r.cfg.BatchDelay, r.onBatchTimer)
		}
		return
	}
	for r.unproposedCount() > 0 {
		batch := r.takeBatch()
		if len(batch) == 0 {
			return
		}
		r.nextSeq++
		seq := r.nextSeq
		e := r.logEntry(seq)
		e.view = r.view
		e.batch = batch
		e.digest = batchDigest(batch)
		e.preprepared = true
		e.prepares[r.cfg.Self] = e.digest
		r.broadcast(encodePrePrepare(r.view, seq, batch))
		if r.unproposedCount() < r.cfg.BatchSize {
			break
		}
	}
	// Leftovers below a full batch wait for the next timer or fill.
	if r.unproposedCount() > 0 && !r.batchTimer {
		r.batchTimer = true
		r.after(r.cfg.BatchDelay, r.onBatchTimer)
	}
}

// unproposedCount counts pending requests not yet in any log entry.
func (r *Replica) unproposedCount() int { return len(r.pendingOrder) }

// takeBatch removes up to BatchSize requests from the pending queue.
func (r *Replica) takeBatch() []types.Payment {
	n := len(r.pendingOrder)
	if n > r.cfg.BatchSize {
		n = r.cfg.BatchSize
	}
	batch := make([]types.Payment, 0, n)
	for _, id := range r.pendingOrder[:n] {
		if req, ok := r.pending[id]; ok {
			batch = append(batch, req.payment)
		}
	}
	r.pendingOrder = r.pendingOrder[n:]
	return batch
}

// ---- consensus message handling ----

func (r *Replica) onMessage(from transport.NodeID, payload []byte) {
	peer := types.ReplicaID(from)
	if r.cfg.Auth != nil {
		if len(payload) < crypto.TagSize {
			return
		}
		// MAC verification runs on the verifier pool, off the dispatch
		// goroutine and outside r.mu; the protocol handler re-enters via
		// the completion callback. Transports hand buffer ownership to
		// the handler, so retaining payload across the hop is safe.
		msg, tag := payload[:len(payload)-crypto.TagSize], payload[len(payload)-crypto.TagSize:]
		r.cfg.Verifier.VerifyDetached(
			func() bool { return r.cfg.Auth.VerifyTag(peer, msg, tag) },
			func(ok bool) {
				if ok {
					r.dispatch(peer, msg)
				}
				// else: forged or corrupted
			})
		return
	}
	r.dispatch(peer, payload)
}

// dispatch routes an authenticated protocol message under the lock.
func (r *Replica) dispatch(peer types.ReplicaID, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kind, body := splitKind(payload)
	switch kind {
	case kindPrePrepare:
		r.onPrePrepare(peer, body)
	case kindPrepare:
		r.onPrepare(peer, body)
	case kindCommit:
		r.onCommit(peer, body)
	case kindViewChange:
		r.onViewChange(peer, body)
	case kindNewView:
		r.onNewView(peer, body)
	}
}

func (r *Replica) onPrePrepare(peer types.ReplicaID, body []byte) {
	view, seq, batch, ok := decodePrePrepare(body)
	// Proposals for the current view are accepted even while this
	// replica is still waiting for the NEW-VIEW message: the new leader
	// only proposes after gathering a view-change quorum, and the
	// network may reorder its NEW-VIEW behind its first proposals.
	if !ok || view != r.view {
		return
	}
	if r.cfg.leaderOf(view) != peer {
		return // only the leader proposes
	}
	e := r.logEntry(seq)
	if e.executed {
		return
	}
	if e.preprepared && e.view >= view {
		return
	}
	// A proposal (possibly superseding a stale entry left behind by a
	// failed leader) adopts the new view and digest; votes already
	// gathered are retained — they only count if their digest matches.
	r.resetEntry(e, view, batch)
	e.prepares[peer] = e.digest
	e.prepares[r.cfg.Self] = e.digest
	r.broadcast(encodePrepare(view, seq, e.digest))
	r.checkPrepared(seq, e)
}

// resetEntry re-initializes a log entry for a (re-)proposal in view.
// Vote maps survive: prepares/commits may legitimately arrive before the
// proposal itself (network reordering), and are tallied by digest.
func (r *Replica) resetEntry(e *entry, view uint64, batch []types.Payment) {
	e.view = view
	e.batch = batch
	e.digest = batchDigest(batch)
	e.preprepared = true
	e.prepared = false
	e.committed = false
}

func (r *Replica) onPrepare(peer types.ReplicaID, body []byte) {
	view, seq, digest, ok := decodePhase(body)
	if !ok || view != r.view {
		return
	}
	e := r.logEntry(seq)
	if e.preprepared && e.view != view {
		return
	}
	e.prepares[peer] = digest
	r.checkPrepared(seq, e)
}

func (r *Replica) checkPrepared(seq uint64, e *entry) {
	if e.prepared || !e.preprepared || votesFor(e.prepares, e.digest) < r.cfg.quorum() {
		return
	}
	e.prepared = true
	e.commits[r.cfg.Self] = e.digest
	r.broadcast(encodeCommit(e.view, seq, e.digest))
	r.checkCommitted(seq, e)
}

func (r *Replica) onCommit(peer types.ReplicaID, body []byte) {
	view, seq, digest, ok := decodePhase(body)
	if !ok || view != r.view {
		return
	}
	e := r.logEntry(seq)
	if e.preprepared && e.view != view {
		return
	}
	e.commits[peer] = digest
	r.checkCommitted(seq, e)
}

func (r *Replica) checkCommitted(seq uint64, e *entry) {
	if e.committed || !e.prepared || votesFor(e.commits, e.digest) < r.cfg.quorum() {
		return
	}
	e.committed = true
	r.executeReady()
}

// executeReady applies committed batches in sequence order.
func (r *Replica) executeReady() {
	for {
		e, ok := r.log[r.execUpTo+1]
		if !ok || !e.committed || e.executed {
			return
		}
		e.executed = true
		r.execUpTo++
		for _, p := range e.batch {
			settled := r.state.ApplyEntry(core.BatchEntry{Payment: p})
			r.executedTotal.Add(uint64(len(settled)))
			for _, sp := range settled {
				// Confirm to the spender's client; clients count f+1
				// matching confirmations.
				_ = r.cfg.Mux.Send(transport.ClientNode(sp.Spender), transport.ChanPayment, encodeClientConfirm(sp.ID()))
				id := sp.ID()
				delete(r.pending, id)
				r.dropFromOrder(id)
			}
			// Remove even if queued unfunded: it is in the engine now.
			id := p.ID()
			delete(r.pending, id)
			r.dropFromOrder(id)
		}
	}
}

func (r *Replica) dropFromOrder(id types.PaymentID) {
	for i, x := range r.pendingOrder {
		if x == id {
			r.pendingOrder = append(r.pendingOrder[:i], r.pendingOrder[i+1:]...)
			return
		}
	}
}

func (r *Replica) logEntry(seq uint64) *entry {
	e, ok := r.log[seq]
	if !ok {
		e = &entry{
			prepares: make(map[types.ReplicaID]types.Digest),
			commits:  make(map[types.ReplicaID]types.Digest),
		}
		r.log[seq] = e
	}
	return e
}

// ---- timers and view change ----

// onBatchTimer proposes whatever is pending once the batch delay is up.
func (r *Replica) onBatchTimer() {
	r.batchTimer = false
	if r.isLeader() && !r.inViewChange {
		r.maybePropose(true)
	}
}

// onTick checks whether the oldest pending request has waited past the
// timeout; if so, suspect the leader. It re-arms itself.
func (r *Replica) onTick() {
	defer r.scheduleTick()
	if r.inViewChange {
		// If the view change itself stalls (next leader also faulty),
		// escalate to the following view.
		if time.Since(r.vcStarted) > 2*r.cfg.RequestTimeout {
			r.startViewChange(r.view + 2)
		}
		return
	}
	if r.isLeader() {
		return
	}
	oldest := time.Time{}
	for _, req := range r.pending {
		if oldest.IsZero() || req.arrived.Before(oldest) {
			oldest = req.arrived
		}
	}
	if !oldest.IsZero() && time.Since(oldest) > r.cfg.RequestTimeout {
		r.startViewChange(r.view + 1)
	}
}

func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view {
		return
	}
	r.inViewChange = true
	r.vcStarted = time.Now()
	r.view = newView
	msg := &viewChangeMsg{NewView: newView, LastExec: r.execUpTo, Prepared: r.preparedTail()}
	r.recordViewChange(r.cfg.Self, msg)
	r.broadcast(encodeViewChange(msg))
}

// preparedTail collects prepared-but-unexecuted batches to hand to the new
// leader.
func (r *Replica) preparedTail() []preparedEntry {
	var out []preparedEntry
	for seq, e := range r.log {
		if seq > r.execUpTo && e.prepared && !e.executed {
			out = append(out, preparedEntry{Seq: seq, Batch: e.batch})
		}
	}
	return out
}

func (r *Replica) onViewChange(peer types.ReplicaID, body []byte) {
	msg, ok := decodeViewChange(body)
	if !ok || msg.NewView < r.view {
		return
	}
	r.recordViewChange(peer, msg)
}

func (r *Replica) recordViewChange(peer types.ReplicaID, msg *viewChangeMsg) {
	votes := r.vcVotes[msg.NewView]
	if votes == nil {
		votes = make(map[types.ReplicaID]*viewChangeMsg)
		r.vcVotes[msg.NewView] = votes
	}
	votes[peer] = msg

	// A replica that sees f+1 view-change votes for a higher view joins
	// the view change even if its own timer has not fired (PBFT rule).
	if len(votes) > r.cfg.F && msg.NewView > r.view && !r.inViewChange {
		r.startViewChange(msg.NewView)
	}

	if r.cfg.leaderOf(msg.NewView) != r.cfg.Self {
		return
	}
	if len(votes) < r.cfg.quorum() {
		return
	}
	if r.view == msg.NewView && r.inViewChange {
		// We are the incoming leader with a quorum: synchronize, then
		// emit NEW-VIEW. The synchronization cost models the state
		// transfer and session re-establishment that dominates view
		// change duration at scale.
		r.after(r.cfg.ViewChangeSyncCost, r.finishNewView)
	}
}

// finishNewView runs at the incoming leader after the synchronization
// delay: merge the prepared tails and re-propose.
func (r *Replica) finishNewView() {
	if !r.inViewChange || r.cfg.leaderOf(r.view) != r.cfg.Self {
		return
	}
	votes := r.vcVotes[r.view]
	if len(votes) < r.cfg.quorum() {
		return
	}
	// Merge prepared entries: highest view wins per seq; here batches are
	// identified by seq and any prepared batch from a quorum member is
	// safe to re-propose.
	merged := make(map[uint64][]types.Payment)
	maxExec := uint64(0)
	for _, v := range votes {
		if v.LastExec > maxExec {
			maxExec = v.LastExec
		}
		for _, pe := range v.Prepared {
			merged[pe.Seq] = pe.Batch
		}
	}
	var entries []preparedEntry
	for seq, b := range merged {
		if seq > r.execUpTo {
			entries = append(entries, preparedEntry{Seq: seq, Batch: b})
		}
	}
	if r.nextSeq < maxExec {
		r.nextSeq = maxExec
	}
	for _, pe := range entries {
		if pe.Seq > r.nextSeq {
			r.nextSeq = pe.Seq
		}
	}
	msg := encodeNewView(r.view, entries)
	r.broadcast(msg)
	// The leader leaves the view change through the same handler as
	// everyone else, by direct call: broadcast skips self.
	_, body := splitKind(msg)
	r.onNewView(r.cfg.Self, body)
}

func (r *Replica) onNewView(peer types.ReplicaID, body []byte) {
	view, entries, ok := decodeNewView(body)
	if !ok || view < r.view || r.cfg.leaderOf(view) != peer {
		return
	}
	r.view = view
	r.inViewChange = false
	r.viewChangesRun.Add(1)
	// Treat re-proposals as fresh pre-prepares in the new view.
	for _, pe := range entries {
		e := r.logEntry(pe.Seq)
		if e.executed {
			continue
		}
		if e.preprepared && e.view == view {
			continue // already accepted directly from the new leader
		}
		r.resetEntry(e, view, pe.Batch)
		e.prepares[peer] = e.digest
		e.prepares[r.cfg.Self] = e.digest
		r.broadcast(encodePrepare(view, pe.Seq, e.digest))
	}
	// Refresh request timers: give the new leader a full timeout.
	now := time.Now()
	for _, req := range r.pending {
		req.arrived = now
	}
	if r.isLeader() {
		r.maybePropose(true)
	}
}
