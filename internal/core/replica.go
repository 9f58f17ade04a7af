package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"astro/internal/brb"
	"astro/internal/crypto/verifier"
	"astro/internal/kv"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wal"
	"astro/internal/wire"
)

// Replica is one node of an Astro deployment (paper §III). It plays two
// roles at once:
//
//   - state replica: it participates in the shard's BRB group, and on
//     every delivery approves and settles payments into its copy of the
//     shard's xlogs;
//   - representative: for the clients mapped to it, it accepts payment
//     submissions, batches them (paper §VI-A), broadcasts the batches, and
//     confirms settlement back to the clients. Under Astro II it also
//     collects CREDIT messages into dependency certificates on behalf of
//     its clients (paper Listing 10).
//
// Locking is split by role, so the protocol channels' dispatch goroutines
// (sharded since PR 2) stop serializing on one mutex:
//
//   - settlement state lives in State, which is self-synchronized with
//     per-stripe locks (see State's doc); delivered batches fan out per
//     stripe so disjoint accounts settle concurrently;
//   - repMu guards the representative-side bookkeeping (batch buffer,
//     in-flight projection, held submissions, accumulated dependencies);
//   - creditMu guards the CREDIT accumulator — the only cross-stripe
//     hand-off of the settlement pipeline, keyed by credit-group digest;
//   - endorsedMu guards the endorsement memory (called from inside the
//     BRB layer).
//
// Lock order: creditMu ≺ repMu ≺ State's stripe locks (stripe locks are
// leaves; repMu holders may read balances, creditMu completion hands off
// to repMu after release). endorsedMu holders consult the xlogs, so it
// too precedes the stripe locks; it never nests with creditMu or repMu.
type Replica struct {
	cfg Config
	bc  brb.Broadcaster

	state *State

	// repMu guards the representative state below.
	repMu          sync.Mutex
	buffer         []BatchEntry
	flushScheduled bool
	// sendQ holds taken batches awaiting Broadcast, and sending marks the
	// single active drainer (the deliverQ pattern): queue position under
	// repMu — not the later Broadcast call — fixes the global broadcast
	// order, so concurrent flushers (payment dispatch, delivery, credit
	// completions) cannot reorder one client's payments between take and
	// send, and a failed Broadcast retries from the queue front without
	// anything newer overtaking it.
	sendQ   [][]BatchEntry
	sending bool
	// myInflight counts own batches broadcast but not yet self-delivered.
	// Batching is self-clocked: when nothing is in flight, submissions
	// flush immediately (low-load latency); while a batch is in flight,
	// arrivals accumulate, so batch size automatically tracks load × RTT
	// and amortizes per-batch signatures — the effect the paper achieves
	// with its 256-payment batches (§VI-A). The BatchDelay timer remains
	// as a liveness fallback.
	myInflight     int
	repDeps        map[types.ClientID][]Dependency
	pendingSubmits map[types.ClientID][]heldSubmit
	// Astro II projected-balance accounting: a correct representative
	// never broadcasts a payment its client cannot fund (the paper's
	// Listing 9 otherwise wedges the xlog).
	inflightOut  map[types.ClientID]types.Amount
	inflightDeps map[types.ClientID]types.Amount
	attachedVal  map[types.PaymentID]types.Amount
	// submittedHi is the highest sequence number accepted from each
	// client, covering every pre-settlement stage (held, buffered,
	// broadcast in flight); NextSeq resyncs must not hand these out again.
	submittedHi map[types.ClientID]types.Seq

	// creditMu guards the CREDIT accumulator. creditAccum buckets
	// accumulators by a cheap content key; creditStateFor resolves the
	// bucket by exact group comparison, so the group digest is hashed
	// once per distinct group, not once per signer message.
	creditMu    sync.Mutex
	creditAccum map[creditKey][]*creditState

	// creditSigner signs CREDITs at the payment layer (Astro II): the
	// credit groups pending at each drain share one signature over a hash
	// chain of group digests, a lone group being a chain of one. Groups of
	// settlement waves that queue while an ECDSA is in flight join the
	// next chain. It is the CREDIT analogue of the BRB ack chains,
	// scheduled by the same verifier.ChainSigner machinery. Signing (and
	// group hashing) runs pool-side, never on a delivery goroutine.
	creditSigner *verifier.ChainSigner[creditJob]

	// endorsement memory for the BRB external-validity hook (the in-flight
	// window of endorse.go); separate lock because the hook is called from
	// inside the BRB layer.
	endorsedMu sync.Mutex
	endorsed   endorseWindow

	// stripeFlows pin each settlement stripe to a lane-affine flow of the
	// configured scheduler runtime.
	stripeFlows []*sched.Flow

	// Durability (nil wal disables the whole subsystem; see durable.go).
	// bcastMu guards the broadcast-slot reservation table — a leaf lock,
	// never nested with any other. pendingBcast maps every slot this
	// replica durably reserved but has not yet self-delivered to its batch
	// payload; nextBcastSlot is the highest slot ever reserved, mirroring
	// (and, across restarts, seeding) the BRB layer's own sequence.
	wal *wal.Writer
	// accountStore is the WAL backend's embedded KV store, when it has
	// one (wal.KVBackend): the spill target for the bounded-residency
	// account pager and the home of the incremental snapshot manifest.
	accountStore  *kv.Store
	bcastMu       sync.Mutex
	pendingBcast  map[uint64][]byte
	nextBcastSlot uint64
	walBatches    atomic.Uint64
	// recovered marks a replica that replayed any durable state;
	// replayedWaves holds the log tail's settlement waves until
	// finishRecovery re-enqueues their CREDIT groups.
	recovered     bool
	replayedWaves [][]types.Payment

	settledTotal      atomic.Uint64
	confirmedTotal    atomic.Uint64
	broadcastFailures atomic.Uint64

	// edge counts hostile-frame rejections at the client edge (edge.go).
	edge edgeCounters
}

// stripeFlowQueue bounds each stripe flow's queue: deep enough for the
// stripe tasks of many in-flight deliveries, shallow enough that a stalled
// stripe backpressures its deliverers instead of buffering unboundedly.
const stripeFlowQueue = 256

// creditKey is the cheap accumulator-lookup key for a credit group: first
// payment identifier plus group length. Buckets are disambiguated by full
// group comparison (collision-proof, cheaper than hashing), so k CREDIT
// copies of one group from k signers hash the group once.
type creditKey struct {
	first types.PaymentID
	n     int
}

type creditState struct {
	group  []types.Payment
	digest types.Digest
	cert   DepCert
	// self marks the group as endorsed by this replica's own settlement:
	// it counts toward f+1 without a signature, because the dependency
	// only ever rides this replica's own batches, whose tagged PREPARE is
	// its endorsement (VerifyDependency counts the batch origin).
	self bool
	done bool
}

// creditJob is one credit group awaiting signature, addressed to the
// beneficiaries' representative (ChainSigner work item).
type creditJob struct {
	rep   types.ReplicaID
	group []types.Payment
}

// heldSubmit is a client submission awaiting funds at the representative.
type heldSubmit struct {
	payment types.Payment
	sig     []byte
}

// NewReplica assembles a replica, registering its protocol handlers on the
// configured mux.
func NewReplica(cfg Config) (*Replica, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:            cfg,
		repDeps:        make(map[types.ClientID][]Dependency),
		pendingSubmits: make(map[types.ClientID][]heldSubmit),
		inflightOut:    make(map[types.ClientID]types.Amount),
		inflightDeps:   make(map[types.ClientID]types.Amount),
		attachedVal:    make(map[types.PaymentID]types.Amount),
		creditAccum:    make(map[creditKey][]*creditState),
		submittedHi:    make(map[types.ClientID]types.Seq),
		endorsed:       make(endorseWindow),
		pendingBcast:   make(map[uint64][]byte),
	}
	// Dependency certificates are verified by screenDependencies on the
	// BRB delivery path, *before* any stripe lock is taken and fanned out
	// across the verifier pool — not by State under its locks (they used
	// to verify memoized-but-serial there, lengthening every settlement
	// critical section). State therefore trusts the deps it is handed.
	//
	// When the WAL backend embeds a KV store (wal.KVBackend) and a cache
	// bound is configured, the state pages against that store: cold
	// accounts spill as per-account records and fault back in on access.
	if as, ok := cfg.WAL.(interface{ AccountStore() *kv.Store }); ok {
		r.accountStore = as.AccountStore()
	}
	if cfg.StateCacheAccounts > 0 && r.accountStore == nil {
		return nil, ErrConfigStateCache
	}
	r.state = NewStatePaged(cfg.Version, cfg.Genesis, nil, DefaultStateStripes, r.accountStore, cfg.StateCacheAccounts)

	// Pin each settlement stripe to a lane-affine flow on the shared
	// runtime: a stripe's settle tasks execute in FIFO order on one lane
	// at a time (per-spender FIFO falls out, since a spender maps to one
	// stripe), with no goroutine spawned per delivery. The round-robin
	// flow homes spread the stripes across lanes; work-stealing rebalances
	// when deliveries load stripes unevenly.
	ns := cfg.Sched.KeySpace()
	r.stripeFlows = make([]*sched.Flow, r.state.Stripes())
	for i := range r.stripeFlows {
		r.stripeFlows[i] = cfg.Sched.Flow(ns+uint64(i), stripeFlowQueue)
	}

	// Durable state replays before anything can deliver or submit: the
	// snapshot plus log tail rebuild the settlement state, endorsement
	// memory, reservation table, and in-flight projections, and the WAL
	// writer must exist before the first post-restart endorsement.
	if cfg.WAL != nil {
		if err := r.recover(cfg.WAL); err != nil {
			return nil, fmt.Errorf("replica %d: wal recovery: %w", cfg.Self, err)
		}
		r.wal = wal.NewWriter(cfg.WAL, cfg.Sched)
	}

	bcfg := brb.Config{
		Mux:       cfg.Mux,
		Self:      cfg.Self,
		Peers:     cfg.Replicas,
		F:         cfg.F,
		Validator: r.validateBatch,
		Deliver:   r.onDeliver,
		Auth:      cfg.Auth,
		Keys:      cfg.Keys,
		Registry:  cfg.Registry,
		Verifier:  cfg.Verifier,
		// Restart seeding: never reuse a reserved slot, and deliver in
		// arrival order so slots committed while this replica was down
		// cannot wedge every origin's FIFO (the broadcast layer does not
		// retransmit old slots to a latecomer) — the settlement engine
		// orders payments by client sequence number independently.
		FirstSlot: r.nextBcastSlot,
		Unordered: r.recovered,
	}
	var err error
	switch cfg.Version {
	case AstroI:
		r.bc, err = brb.NewBracha(bcfg)
	case AstroII:
		r.bc, err = brb.NewSigned(bcfg)
	}
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", cfg.Self, err)
	}

	cfg.Mux.Register(transport.ChanPayment, r.onPaymentMsg)
	if cfg.Version == AstroII {
		r.creditSigner = verifier.NewChainSigner(cfg.Verifier, creditChainCap, r.sendCreditChain)
		cfg.Mux.Register(transport.ChanCredit, r.onCredit)
	}
	if r.recovered {
		r.finishRecovery()
	}
	return r, nil
}

// creditChainCap caps how many credit groups one signature covers; same
// rationale as the BRB ack-chain cap — the amortization gain is hyperbolic
// while the wire cost of the inline chain is linear in it.
const creditChainCap = 32

// ID returns the replica's identity.
func (r *Replica) ID() types.ReplicaID { return r.cfg.Self }

// Close shuts the replica down cleanly. With durability enabled it first
// pushes buffered batches through the broadcast path (reserving their
// slots durably — even if the network is already gone, the reservations
// survive to be rebroadcast after restart), then writes a final compacted
// snapshot, flushes and fsyncs every queued WAL record, and closes the
// backend. Finally it releases the replica's scheduler resources — its
// flows' registrations on the (shared, long-lived) runtime — so harnesses
// that build many replicas per process do not grow the flow registry
// without bound. The caller must guarantee no further deliveries reach
// this replica (close the mux or the network first). Safe to call more
// than once.
func (r *Replica) Close() {
	if r.wal != nil {
		r.repMu.Lock()
		r.flushScheduled = true // suppress timer rearm; nothing will serve it
		r.sendQ = append(r.sendQ, r.takeBatchesLocked()...)
		r.repMu.Unlock()
		r.drainBroadcasts()
		r.wal.Snapshot(r.walSnapshotBuild)
		r.wal.Close()
	}
	for _, fl := range r.stripeFlows {
		fl.Release()
	}
}

// Abandon is the in-process kill -9: it discards unsynced WAL work
// without flushing — exactly what a power cut would — and releases the
// replica's scheduler resources. Crash-recovery tests use it to die at an
// arbitrary point; production shutdown uses Close.
func (r *Replica) Abandon() {
	if r.wal != nil {
		r.wal.Abort()
	}
	for _, fl := range r.stripeFlows {
		fl.Release()
	}
}

// SettledCount returns the number of payments this replica has settled;
// the experiment harness samples it to build throughput timelines.
func (r *Replica) SettledCount() uint64 { return r.settledTotal.Load() }

// ConfirmedCount returns the number of settlement confirmations this
// replica has sent to its clients.
func (r *Replica) ConfirmedCount() uint64 { return r.confirmedTotal.Load() }

// CreditRefStats counts inbound credit chain references that resolved
// (RefHits) and missed (RefMisses). The credit channel has no reference
// protocol any more — every wave travels as a self-contained CREDITTAB —
// so both read zero; the accessor stays only while the benchmark harness
// still reports core.credit_ref_hit_ratio from it.
type CreditRefStats struct {
	RefHits, RefMisses uint64
}

// CreditRefStats returns the zero CreditRefStats (see the type).
func (r *Replica) CreditRefStats() CreditRefStats { return CreditRefStats{} }

// CreditSignStats returns how many signing operations this replica has
// spent on CREDIT messages and how many credit groups they covered;
// groups/ops > 1 means settlement-wave chain batching engaged.
func (r *Replica) CreditSignStats() (ops, groups uint64) {
	if r.creditSigner == nil {
		return 0, 0
	}
	return r.creditSigner.Stats()
}

// Balance returns the client's spendable balance as this replica sees it:
// the settled balance plus, if this replica represents the client under
// Astro II, the value of dependency certificates awaiting attachment.
func (r *Replica) Balance(c types.ClientID) types.Amount {
	bal := r.state.Balance(c)
	if r.cfg.Version == AstroII && r.cfg.RepOf(c) == r.cfg.Self {
		r.repMu.Lock()
		bal += r.pendingCreditLocked(c)
		r.repMu.Unlock()
	}
	return bal
}

// pendingCreditLocked sums the spendable value of c's attachable
// dependency certificates. repMu is held; stripe locks nest inside it.
func (r *Replica) pendingCreditLocked(c types.ClientID) types.Amount {
	return r.dedupedDepValue(c, r.repDeps[c])
}

// depAddsCreditLocked reports whether dep carries at least one credit for
// b that is neither held by an already-registered attachable certificate
// nor materialized into the settled balance. repMu is held.
func (r *Replica) depAddsCreditLocked(b types.ClientID, dep Dependency) bool {
	var held map[types.PaymentID]struct{}
	for _, ex := range r.repDeps[b] {
		for _, q := range ex.Group {
			if q.Beneficiary == b {
				if held == nil {
					held = make(map[types.PaymentID]struct{})
				}
				held[q.ID()] = struct{}{}
			}
		}
	}
	for _, q := range dep.Group {
		if q.Beneficiary != b {
			continue
		}
		id := q.ID()
		if _, ok := held[id]; ok {
			continue
		}
		if r.state.DepUsed(b, id) {
			continue
		}
		return true
	}
	return false
}

// dedupedDepValue values a dependency list for client c, counting each
// credited payment once even when certificates overlap — a restart-time
// CREDITREDO can regroup payments whose original settlement-wave
// certificate is still in flight, so two valid certificates for the same
// payment may both register — and skipping credits already materialized
// into the settled balance (settlement dedups through usedDeps, so an
// overlapping certificate carries no new money).
func (r *Replica) dedupedDepValue(c types.ClientID, deps []Dependency) types.Amount {
	var sum types.Amount
	var seen map[types.PaymentID]struct{}
	for _, d := range deps {
		for _, q := range d.Group {
			if q.Beneficiary != c {
				continue
			}
			id := q.ID()
			if _, dup := seen[id]; dup {
				continue
			}
			if seen == nil {
				seen = make(map[types.PaymentID]struct{})
			}
			seen[id] = struct{}{}
			if r.state.DepUsed(c, id) {
				continue
			}
			sum += q.Amount
		}
	}
	return sum
}

// Counters returns the state engine's lifetime statistics.
func (r *Replica) Counters() Counters { return r.state.Counters() }

// XLogSnapshot returns a copy of a client's exclusive log for audit.
func (r *Replica) XLogSnapshot(c types.ClientID) []types.Payment {
	return r.state.XLogSnapshot(c)
}

// NextSeq returns the next settleable sequence number for a client.
func (r *Replica) NextSeq(c types.ClientID) types.Seq {
	return r.state.NextSeq(c)
}

// StateSnapshot exports all xlogs for reconfiguration state transfer.
func (r *Replica) StateSnapshot() map[types.ClientID][]types.Payment {
	return r.state.Snapshot()
}

// validateBatch is the BRB external-validity hook: this replica endorses a
// batch only if every payment is broadcast by its spender's representative
// for a client of this shard, and does not conflict with a payment this
// replica already endorsed for the same identifier — the double-spend
// check of the broadcast layer (paper §II).
func (r *Replica) validateBatch(origin types.ReplicaID, _ uint64, payload []byte) bool {
	entries, err := DecodeBatch(payload)
	if err != nil {
		return false
	}
	myShard := r.cfg.ReplicaShard(r.cfg.Self)
	// End-to-end client signatures (paper §VI-A): verified by every
	// replica before endorsement, so a malicious representative cannot
	// fabricate payments for its clients. The whole batch fans out across
	// the verifier pool — with early exit on the first forgery — before
	// any lock is taken; at the spender's own representative each check
	// is a memo hit from submission time.
	if r.cfg.ClientKeys != nil {
		sigs := make([]verifier.ClientSig, len(entries))
		for i, e := range entries {
			sigs[i] = verifier.ClientSig{
				Client: e.Payment.Spender,
				Digest: PaymentDigest(e.Payment),
				Sig:    e.Sig,
			}
		}
		if !r.cfg.Verifier.VerifyClientBatch(r.cfg.ClientKeys, sigs).Wait() {
			return false
		}
	}
	return r.endorseEntries(origin, myShard, entries)
}

// endorseEntries performs the endorsement checks and, on success, records
// the batch in the endorsement memory — and in the WAL, so the promise
// survives a restart (recEndorse rides the next tail sync rather than a
// barrier: the residual window is documented in internal/wal, and its
// failure mode is liveness, never safety, because recovery refuses to
// adopt endorsement memory from peers).
//
// An identifier at or below the spender's settled length is answered by
// the xlog; everything above it by the in-flight window. endorsedMu is
// held throughout, so no prune can run in between: whatever this replica
// endorsed and the window no longer holds has settled, and is found in
// the xlog read under the lock.
func (r *Replica) endorseEntries(origin types.ReplicaID, myShard types.ShardID, entries []BatchEntry) bool {
	for _, e := range entries {
		if r.cfg.RepOf(e.Payment.Spender) != origin {
			return false // origin does not represent this spender
		}
		if r.cfg.ShardOf(e.Payment.Spender) != myShard {
			return false // xlog belongs to another shard
		}
	}
	var rec []byte // recEndorse payload: the unsettled entries, back to back
	if r.wal != nil {
		rec = make([]byte, 0, len(entries)*types.PaymentWireSize)
	}
	// Bindings are made entry by entry, so a batch equivocating against
	// itself meets its own first variant — settling such a batch would
	// strand the second variant behind an unfillable sequence gap and wedge
	// the origin's per-replica FIFO for every client. fresh lists what this
	// batch bound, to be undone if a later entry is refused: nothing stays
	// recorded unless every entry checks out.
	var fresh []types.Payment
	var spender types.ClientID
	var next types.Seq
	ok := true
	r.endorsedMu.Lock()
	for i, e := range entries {
		p := e.Payment
		if i == 0 || p.Spender != spender {
			spender, next = p.Spender, r.state.NextSeq(p.Spender)
		}
		if p.Seq < next {
			if settled, found := r.state.SettledAt(p.Spender, p.Seq); found {
				if settled != p {
					ok = false // conflicts with the settled payment
					break
				}
				continue
			}
		}
		bound, inserted := r.endorsed.bind(p)
		if bound != p {
			ok = false // conflicting payment for the same identifier
			break
		}
		if inserted {
			fresh = append(fresh, p)
		}
		if r.wal != nil {
			rec = p.AppendBinary(rec)
		}
	}
	if !ok {
		for _, p := range fresh {
			r.endorsed.release(p)
		}
	}
	r.endorsedMu.Unlock()
	if ok && len(rec) > 0 {
		r.wal.Append(recEndorse, rec)
	}
	return ok
}

// onPaymentMsg handles the client-facing channel. Rejection paths are
// ordered cheapest-first and each increments its edge counter — the
// boundedness argument per hostile frame class is in edge.go.
func (r *Replica) onPaymentMsg(from transport.NodeID, payload []byte) {
	if len(payload) == 0 {
		r.edge.malformed.Add(1)
		return
	}
	switch payload[0] {
	case msgSubmit:
		p, sig, ok := decodeSubmit(payload[1:])
		if !ok {
			r.edge.malformed.Add(1)
			return
		}
		// Only the client itself may submit payments for its xlog: the
		// transport authenticates the sender node.
		if transport.ClientNode(p.Spender) != from {
			r.edge.spoofed.Add(1)
			return
		}
		if r.cfg.RepOf(p.Spender) != r.cfg.Self {
			r.edge.wrongRep.Add(1)
			return // not this replica's client
		}
		// End-to-end authentication: with client keys configured, a
		// submission must carry the spender's signature. Verified through
		// the memo cache, so when this replica's own batch comes back for
		// endorsement the same signature is a cache hit, not a second
		// ECDSA.
		if r.cfg.ClientKeys != nil && !r.cfg.Verifier.VerifyClient(r.cfg.ClientKeys, p.Spender, PaymentDigest(p), sig) {
			r.edge.badSig.Add(1)
			return
		}
		if !r.preScreenSubmit(p) {
			return
		}
		r.submit(p, sig)
	case msgStatsReq:
		r.handleStatsReq(from)
	case msgBalanceReq:
		if len(payload) != 9 {
			r.edge.malformed.Add(1)
			return
		}
		c := types.ClientID(be64(payload[1:9]))
		bal := r.Balance(c)
		_ = r.cfg.Mux.Send(from, transport.ChanPayment, encodeBalanceResp(c, bal))
	case msgSeqReq:
		if len(payload) != 9 {
			r.edge.malformed.Add(1)
			return
		}
		c := types.ClientID(be64(payload[1:9]))
		// Clients recovering from a restart resynchronize their sequence
		// counter from the replicated xlog (plus whatever this
		// representative already endorsed beyond it, so a resync cannot
		// collide with in-flight payments).
		_ = r.cfg.Mux.Send(from, transport.ChanPayment, encodeSeqResp(c, r.nextUsableSeq(c)))
	case msgConfirm, msgBalanceResp, msgSeqResp, msgStatsResp:
		// Response kinds reflected back at a replica: hostile, drop.
		r.edge.malformed.Add(1)
	default:
		r.edge.malformed.Add(1)
	}
}

// nextUsableSeq returns the lowest sequence number a restarted client can
// safely assign: past everything settled in the xlog, everything accepted
// from the client into any pre-settlement stage (held, buffered,
// broadcast in flight — the submittedHi high-water mark), and everything
// this replica has endorsed. Handing out a number still in flight would
// let the restarted client create exactly the conflicting-resubmission
// wedge preScreenSubmit exists to prevent.
func (r *Replica) nextUsableSeq(c types.ClientID) types.Seq {
	next := r.state.NextSeq(c)
	r.repMu.Lock()
	if hi := r.submittedHi[c]; hi >= next {
		next = hi + 1
	}
	r.repMu.Unlock()
	r.endorsedMu.Lock()
	next = r.endorsed.nextFree(c, next)
	r.endorsedMu.Unlock()
	return next
}

// preScreenSubmit rejects submissions that could never settle before they
// occupy a broadcast slot (ROADMAP "wedged representative"): peers
// correctly refuse to endorse a batch containing a payment that conflicts
// with one they already endorsed, but the refused batch would occupy a BRB
// slot that never delivers — and per-origin FIFO would then block every
// later batch from this representative, wedging unrelated clients. The
// screen and submit's reservation consult what peers will consult — the
// xlog here, the in-flight window there — so a doomed payment is refused
// locally and instantly instead.
//
// A byte-identical resubmission of an already-settled payment (a client
// retrying a lost confirmation) is answered with a fresh confirmation
// rather than a rebroadcast.
func (r *Replica) preScreenSubmit(p types.Payment) bool {
	if p.Seq == 0 {
		r.edge.seqZero.Add(1)
		return false // sequence numbers start at 1; Seq 0 can never settle
	}
	if settled, ok := r.state.SettledAt(p.Spender, p.Seq); ok {
		if settled == p {
			r.edge.settledReplay.Add(1)
			_ = r.cfg.Mux.Send(transport.ClientNode(p.Spender), transport.ChanPayment, encodeConfirm(confirmRun{Spender: p.Spender, First: p.Seq, Count: 1}))
		} else {
			r.edge.conflicting.Add(1)
		}
		return false // settled identifier: never occupy a new slot for it
	}
	if !r.withinSeqWindow(p) {
		// Far beyond anything settleable: accepting it would strand a
		// settlement-queue entry behind a gap that can never fill.
		r.edge.futureSeq.Add(1)
		return false
	}
	return true
}

// submit enqueues a client payment for broadcast, attaching accumulated
// dependencies (Astro II, Listing 7) and enforcing the projected-balance
// rule so a correct representative never wedges a client's xlog.
//
// The identifier is bound to the payment in the endorsement memory
// *here*, before the payment sits in the assembly buffer or the held
// queue: checking at endorsement time alone leaves a window — from
// acceptance until the broadcast batch comes back for endorsement — in
// which an equivocating twin would be accepted too and land in the same
// batch, which peers refuse wholesale (wedging this origin's FIFO for
// every client). The reservation is in-memory only; the WAL record is
// written at endorsement time, which is consistent across a crash because
// the unbroadcast buffer dies with the process.
func (r *Replica) submit(p types.Payment, sig []byte) {
	r.endorsedMu.Lock()
	bound, inserted := r.endorsed.bind(p)
	if inserted {
		// The pre-screen saw the identifier unsettled, but its in-flight
		// twin may have settled and been pruned since: the xlog, read
		// under the lock that excludes pruning, has the last word.
		if settled, ok := r.state.SettledAt(p.Spender, p.Seq); ok {
			r.endorsed.release(p)
			bound, inserted = settled, false
		}
	}
	r.endorsedMu.Unlock()
	if !inserted {
		// Conflicting: peers would refuse the batch (double-spend
		// protection) and wedge this origin's FIFO. Identical: already in
		// flight; the confirmation arrives on settlement. Either way, do
		// not occupy another slot.
		if bound != p {
			r.edge.conflicting.Add(1)
		}
		return
	}

	r.repMu.Lock()
	if p.Seq > r.submittedHi[p.Spender] {
		r.submittedHi[p.Spender] = p.Seq
	}
	if r.cfg.Version == AstroII {
		if len(r.pendingSubmits[p.Spender]) > 0 || !r.fundedLocked(p) {
			if len(r.pendingSubmits[p.Spender]) >= maxHeldSubmits {
				// Hold-queue cap: shed instead of growing without bound
				// under an unfunded-submit flood. A correct client retries
				// once its in-flight payments settle — so release the
				// reservation taken above, or that retry would be treated
				// as already in flight and dropped forever.
				r.edge.heldOverflow.Add(1)
				r.repMu.Unlock()
				r.endorsedMu.Lock()
				r.endorsed.release(p)
				r.endorsedMu.Unlock()
				return
			}
			r.pendingSubmits[p.Spender] = append(r.pendingSubmits[p.Spender], heldSubmit{payment: p, sig: sig})
			r.repMu.Unlock()
			return
		}
		r.bufferLocked(p, sig)
	} else {
		r.buffer = append(r.buffer, BatchEntry{Payment: p, Sig: sig})
	}
	r.afterBufferLocked()
}

// fundedLocked reports whether the client's projected balance covers p.
// repMu is held; the settled balance is read under the client's stripe
// lock (stripe locks nest inside repMu, never the reverse).
func (r *Replica) fundedLocked(p types.Payment) bool {
	c := p.Spender
	avail := r.state.Balance(c) + r.inflightDeps[c] + r.pendingCreditLocked(c)
	need := r.inflightOut[c] + p.Amount
	return avail >= need
}

// bufferLocked attaches the client's accumulated dependencies to the
// payment and appends it to the batch buffer (Astro II). repMu is held.
func (r *Replica) bufferLocked(p types.Payment, sig []byte) {
	c := p.Spender
	// Deduplicated valuation, mirroring what settlement will actually
	// credit: the symmetric unwind through attachedVal keeps inflightDeps
	// exact even when attached certificates overlap.
	depVal := r.pendingCreditLocked(c)
	deps := r.repDeps[c]
	delete(r.repDeps, c)
	r.inflightDeps[c] += depVal
	r.inflightOut[c] += p.Amount
	r.attachedVal[p.ID()] = depVal
	r.buffer = append(r.buffer, BatchEntry{Payment: p, Sig: sig, Deps: deps})
}

// afterBufferLocked flushes or schedules a flush; it releases repMu.
func (r *Replica) afterBufferLocked() {
	flushNow := len(r.buffer) > 0 && (len(r.buffer) >= r.cfg.BatchSize || r.myInflight == 0)
	schedule := !flushNow && !r.flushScheduled && len(r.buffer) > 0
	if schedule {
		r.flushScheduled = true
	}
	if flushNow {
		r.sendQ = append(r.sendQ, r.takeBatchesLocked()...)
	}
	r.repMu.Unlock()

	if schedule {
		r.scheduleFlush()
	}
	r.drainBroadcasts()
}

// takeBatchesLocked drains the buffer into batches of at most BatchSize
// and charges them against myInflight. repMu is held.
func (r *Replica) takeBatchesLocked() [][]BatchEntry {
	var out [][]BatchEntry
	for len(r.buffer) > 0 {
		n := len(r.buffer)
		if n > r.cfg.BatchSize {
			n = r.cfg.BatchSize
		}
		out = append(out, r.buffer[:n:n])
		r.buffer = r.buffer[n:]
	}
	r.buffer = nil
	r.myInflight += len(out)
	return out
}

// drainBroadcasts ships queued batches to the BRB layer, in queue order,
// with one active drainer at a time. Neither shipped Broadcaster can fail
// after construction (both only enqueue), but the interface allows it —
// and a future implementation that can fail transiently must not crash a
// node mid-settlement (the pre-PR4 behavior was a panic). A failure
// leaves the batch at the queue front — nothing newer can overtake it, so
// per-client FIFO is preserved by construction — counts it, and retries
// on the batch timer; the in-flight charge stays in place, since the
// batch is still on its way to broadcast.
func (r *Replica) drainBroadcasts() {
	r.repMu.Lock()
	if r.sending {
		r.repMu.Unlock()
		return // the active drainer will pick up what we queued
	}
	r.sending = true
	for len(r.sendQ) > 0 {
		b := r.sendQ[0]
		r.repMu.Unlock()
		payload := EncodeBatch(b)
		if r.wal != nil {
			// Durable slot reservation, fsynced before the first wire
			// message: once any peer can have seen (and acked) this slot,
			// the restart path is guaranteed to know it was used — reusing
			// it under a different payload would be self-equivocation that
			// peers silently refuse, wedging the origin forever. The
			// barrier batches with concurrent appends, so under load one
			// fsync covers a settlement wave's worth of records.
			slot := r.reserveSlot(payload)
			r.wal.Append(recBcast, encodeBcastRecord(slot, payload))
			r.wal.Barrier()
		}
		_, err := r.bc.Broadcast(payload)
		// On a Broadcast error the reservation is deliberately kept:
		// whether the broadcaster consumed the slot is unknowable from
		// here, and an orphan reservation is benign (the restart path
		// rebroadcasts it and the payment layer drops any duplicate),
		// while a reused slot is self-equivocation peers silently refuse.
		r.repMu.Lock()
		if err != nil {
			r.broadcastFailures.Add(1)
			r.sending = false
			schedule := !r.flushScheduled
			if schedule {
				r.flushScheduled = true
			}
			r.repMu.Unlock()
			if schedule {
				r.scheduleFlush()
			}
			return
		}
		r.sendQ = r.sendQ[1:]
	}
	r.sending = false
	r.repMu.Unlock()
}

// BroadcastFailures reports how many times the broadcaster rejected a
// batch and the replica fell back to queue-and-retry.
func (r *Replica) BroadcastFailures() uint64 { return r.broadcastFailures.Load() }

// scheduleFlush arms the batch timer. It fires on ChanPayment's flow, in
// line with the submissions it flushes (repMu makes any order safe, but
// serialization keeps timer latency proportional to the payment queue,
// not to unrelated channels). During WAL replay the buffer is empty, so
// nothing arms it before the replica serves traffic.
func (r *Replica) scheduleFlush() {
	r.cfg.Mux.After(r.cfg.BatchDelay, transport.ChanPayment, r.onFlushTimer)
}

// onFlushTimer ships whatever the batch buffer holds.
func (r *Replica) onFlushTimer() {
	r.repMu.Lock()
	r.flushScheduled = false
	r.sendQ = append(r.sendQ, r.takeBatchesLocked()...)
	r.repMu.Unlock()
	r.drainBroadcasts()
}

// onDeliver is the BRB delivery callback: approve and settle the batch —
// fanned out across the state stripes — then emit confirmations and
// (Astro II) CREDIT messages.
func (r *Replica) onDeliver(origin types.ReplicaID, slot uint64, payload []byte) {
	entries, err := DecodeBatch(payload)
	if err != nil {
		return // validated before endorsement; cannot happen from correct peers
	}
	r.screenDependencies(origin, entries)
	drain := false
	if origin == r.cfg.Self {
		if r.wal != nil {
			r.releaseSlot(slot)
		}
		r.repMu.Lock()
		if r.myInflight > 0 {
			r.myInflight--
			// Self-clocked batching: the wire is free again; ship what
			// accumulated while the previous batch was in flight.
			if r.myInflight == 0 && len(r.buffer) > 0 {
				r.sendQ = append(r.sendQ, r.takeBatchesLocked()...)
				drain = true
			}
		}
		r.repMu.Unlock()
	}
	settled := r.settleEntries(entries)
	r.pruneEndorsed(settled)
	if r.wal != nil {
		// State first, records second: the snapshot build runs on the same
		// FIFO flow as these appends, so anything it truncates is already
		// inside the image it writes. recSettle re-encodes the post-screen
		// entries — replay drives the identical input through the engine.
		// Both records ride the next tail sync; the delivery is
		// reconstructible from peers (state transfer) until then.
		if len(entries) > 0 {
			r.wal.Append(recSettle, EncodeBatch(entries))
		}
		if origin == r.cfg.Self {
			r.wal.Append(recBcastDone, encodeBcastDoneRecord(slot))
		}
		r.walMaybeSnapshot()
	}
	r.postSettle(settled)
	if drain {
		r.drainBroadcasts()
	}
}

// pruneEndorsed drops from the endorsement memory the identifiers these
// settlements moved into the xlogs.
func (r *Replica) pruneEndorsed(settled []types.Payment) {
	if len(settled) == 0 {
		return
	}
	r.endorsedMu.Lock()
	for i, p := range settled {
		// One spender's settlements are listed in sequence order: the last
		// of a run prunes for all of it.
		if i+1 < len(settled) && settled[i+1].Spender == p.Spender {
			continue
		}
		r.endorsed.prune(p.Spender, p.Seq)
	}
	r.endorsedMu.Unlock()
}

// settleEntries applies a delivered batch to the state, fanning the
// entries out across the state's stripes so disjoint accounts settle
// concurrently. One spender's entries always map to one stripe and are
// applied there in batch order, and the BRB layer delivers batches of one
// origin serially with settleEntries completing before the next delivery
// — so every spender's stripe tasks are enqueued (and, per-flow FIFO,
// executed) in batch order: per-spender FIFO is exactly preserved, even
// with lane stealing enabled. The merged result lists every settlement in
// entry order (per-entry results are deterministic across replicas; the
// CREDIT groups derived from them must hash identically everywhere for
// f+1 accumulation to succeed).
//
// Each stripe group is submitted to the stripe's pinned flow — persistent
// lane workers, zero goroutines spawned per delivery — and the deliverer
// runs stealable verification work while it waits.
func (r *Replica) settleEntries(entries []BatchEntry) []types.Payment {
	if len(entries) == 0 {
		return nil
	}
	serial := func() []types.Payment {
		var settled []types.Payment
		for _, e := range entries {
			settled = append(settled, r.state.ApplyEntry(e)...)
		}
		return settled
	}
	if len(entries) == 1 {
		return serial()
	}
	// Group entry indices by stripe, preserving order within each group.
	groups := make(map[int][]int)
	for i, e := range entries {
		si := r.state.StripeIndex(e.Payment.Spender)
		groups[si] = append(groups[si], i)
	}
	if len(groups) == 1 {
		return serial()
	}
	results := make([][]types.Payment, len(entries))
	run := func(idxs []int) {
		for _, i := range idxs {
			results[i] = r.state.ApplyEntry(entries[i])
		}
	}
	// One task per stripe group, on the stripe's flow. The deliverer must
	// not return before the wave completes (the next delivery's enqueues
	// define per-spender FIFO), so it waits — draining its own stripe flows
	// and stealing verifier work meanwhile. Draining its own flows is what
	// makes the wait safe from ANY calling context: Bracha delivers on a
	// dispatch lane, and a lane blocked here must be able to finish its own
	// wave rather than depend on the other lanes being free (stripe tasks
	// are pure state application — they never block or re-enter).
	done := make(chan struct{})
	var pending atomic.Int32
	pending.Store(int32(len(groups)))
	flows := make([]*sched.Flow, 0, len(groups))
	for si, idxs := range groups {
		idxs := idxs
		flows = append(flows, r.stripeFlows[si])
		r.stripeFlows[si].Submit(func() {
			run(idxs)
			if pending.Add(-1) == 0 {
				close(done)
			}
		})
	}
	r.cfg.Sched.HelpFlows(done, flows)
	var settled []types.Payment
	for _, part := range results {
		settled = append(settled, part...)
	}
	return settled
}

// postSettle handles everything that follows settlement: confirmations to
// own clients, in-flight projection updates, and (Astro II) queuing the
// wave's credit groups on the chain signer.
func (r *Replica) postSettle(settled []types.Payment) {
	if len(settled) == 0 {
		return
	}
	r.settledTotal.Add(uint64(len(settled)))

	// What this wave owes each own client, as runs of consecutive sequence
	// numbers in the order they first appear. Xlogs are gap-free, so one
	// spender's settlements in a wave are one stretch and a wave costs one
	// frame per client, however its payments interleave with the others';
	// a gap, or a run at maxConfirmRun, starts a second one.
	var confirms []confirmRun
	var lastRun map[types.ClientID]int // spender -> index of its newest run
	var groups map[types.ReplicaID][]types.Payment
	retry := make(map[types.ClientID]struct{})
	if r.cfg.Version == AstroII {
		groups = make(map[types.ReplicaID][]types.Payment)
	}
	r.repMu.Lock()
	for _, p := range settled {
		if r.cfg.RepOf(p.Spender) == r.cfg.Self {
			if i, ok := lastRun[p.Spender]; ok && confirms[i].First+types.Seq(confirms[i].Count) == p.Seq && confirms[i].Count < maxConfirmRun {
				confirms[i].Count++
			} else {
				if lastRun == nil {
					lastRun = make(map[types.ClientID]int)
				}
				lastRun[p.Spender] = len(confirms)
				confirms = append(confirms, confirmRun{Spender: p.Spender, First: p.Seq, Count: 1})
			}
			if r.cfg.Version == AstroII {
				// Clamped, not plain subtraction: Amount is unsigned, and a
				// restarted replica can settle a payment whose in-flight
				// charge predates its snapshot — an unclamped decrement
				// would wrap the projection to ~2^64 and freeze the client.
				if v := r.inflightOut[p.Spender]; v <= p.Amount {
					delete(r.inflightOut, p.Spender)
				} else {
					r.inflightOut[p.Spender] = v - p.Amount
				}
				if v, ok := r.attachedVal[p.ID()]; ok {
					if cur := r.inflightDeps[p.Spender]; cur <= v {
						delete(r.inflightDeps, p.Spender)
					} else {
						r.inflightDeps[p.Spender] = cur - v
					}
					delete(r.attachedVal, p.ID())
				}
				// With settlement and projection under different locks, a
				// submission racing this settle may have observed the
				// debited balance while the in-flight projection still
				// charged the payment — and been held although fundable.
				// Re-evaluating held submissions after the projection
				// shrinks closes that window (settlement itself never
				// frees funds under Astro II, so this is the only trigger
				// needed beyond new dependencies).
				if len(r.pendingSubmits[p.Spender]) > 0 {
					retry[p.Spender] = struct{}{}
				}
			}
		}
		if r.cfg.Version == AstroII {
			groups[r.cfg.RepOf(p.Beneficiary)] = append(groups[r.cfg.RepOf(p.Beneficiary)], p)
		}
	}
	r.retryPendingLocked(retry) // releases repMu

	for _, run := range confirms {
		r.confirmedTotal.Add(uint64(run.Count))
		_ = r.cfg.Mux.Send(transport.ClientNode(run.Spender), transport.ChanPayment, encodeConfirm(run))
	}

	// Astro II: queue one CREDIT per beneficiary-representative group —
	// the paper's second batching level (§VI-A): as many signatures as
	// sub-batches, not as payments. The chain signer then collapses the
	// groups pending across settlement waves into one signature per
	// drain pass, and hashes/signs pool-side, off this delivery
	// goroutine. Enqueue in ascending representative order: group
	// contents are already replica-deterministic, so a deterministic
	// order makes the whole wave chain replica-deterministic too — when
	// replicas' wave boundaries align, their chains are byte-identical
	// and the dependency-certificate chain table collapses the k
	// signers' chains into one encoding (deps.go).
	reps := make([]types.ReplicaID, 0, len(groups))
	for rep := range groups {
		reps = append(reps, rep)
	}
	slices.Sort(reps)
	for _, rep := range reps {
		r.queueCredit(rep, groups[rep])
	}
}

// queueCredit routes one settled credit group to its beneficiaries'
// representative rep: queued for signature when rep is a peer, or, when
// this replica is the representative, recorded as its own endorsement
// with no signature and no CREDIT sent to itself.
func (r *Replica) queueCredit(rep types.ReplicaID, group []types.Payment) {
	if rep == r.cfg.Self {
		r.endorseOwnCredit(group)
		return
	}
	r.creditSigner.Enqueue(creditJob{rep: rep, group: group})
}

// sendCreditChain signs a settlement wave of credit groups — one or more —
// with one signature over the chain of group digests, and sends each
// destination representative one CREDITTAB: the chain, the signature and
// its groups (ChainSigner flush callback).
func (r *Replica) sendCreditChain(jobs []creditJob, wave *verifier.Wave) {
	chain := make([]types.Digest, len(jobs))
	for i, j := range jobs {
		chain[i] = CreditGroupDigest(j.group)
	}
	cd := CreditChainDigest(chain)
	sig, err := r.creditSigner.Sign(len(jobs), func() ([]byte, error) { return r.cfg.Keys.Sign(cd) })
	if err != nil {
		return
	}
	r.cfg.Verifier.PrimeReplica(r.cfg.Self, cd, sig)
	byRep := make(map[types.ReplicaID][]creditTabGroup)
	for i, j := range jobs {
		byRep[j.rep] = append(byRep[j.rep], creditTabGroup{ChainIdx: uint32(i), Group: j.group})
	}
	for rep, gs := range byRep {
		m := creditTabMsg{Signer: r.cfg.Self, Chain: chain, Sig: sig, Groups: gs}
		w := wave.Scratch(creditTabSize(m))
		appendCreditTab(w, m)
		_ = r.cfg.Mux.Send(transport.ReplicaNode(rep), transport.ChanCredit, w.Bytes())
	}
}

// onCredit routes the credit channel (paper Listing 10): CREDITTABs
// accumulate into dependency certificates for this replica's clients —
// f+1 distinct approvals from the spender's shard, this replica's own
// settlement included, form a dependency.
func (r *Replica) onCredit(from transport.NodeID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	// Only registered replicas originate credit traffic (credits cross
	// shards, so the key registry — not this shard's peer list — is the
	// membership test).
	if from >= transport.ClientNodeBase {
		r.edge.creditOutsider.Add(1)
		return
	}
	peer := types.ReplicaID(from)
	if !r.cfg.Registry.Known(peer) {
		r.edge.creditOutsider.Add(1)
		return
	}
	switch payload[0] {
	case msgCreditTab:
		m, err := decodeCreditTab(payload[1:])
		if err != nil {
			return
		}
		r.acceptCreditTab(m)
	case msgCreditRedo:
		if r.creditSigner == nil {
			return
		}
		groups, err := decodeCreditRedo(payload[1:])
		if err != nil {
			return
		}
		// A restarted representative lost CREDITs addressed to it while it
		// was down (there is no retransmission), stranding its clients'
		// certificates below f+1. Re-sign — through the normal send path,
		// so accumulation and dedup at the requester are unchanged — any
		// requested group this replica can itself vouch for: every payment
		// settled in the local xlogs, every beneficiary represented by the
		// requester, spenders in this replica's shard. Nothing here trusts
		// the requester: the signature only restates what the local log
		// already committed to, and double-materialization is blocked at
		// attach time by the beneficiaries' used-dependency sets.
		for _, group := range groups {
			if !r.redoGroupVouchable(peer, group) {
				continue
			}
			r.queueCredit(peer, group)
		}
	case msgCreditRescan:
		if r.creditSigner == nil {
			return
		}
		if err := decodeCreditRescan(payload[1:]); err != nil {
			return
		}
		// A restarted representative in *another* shard cannot enumerate
		// the payments it is missing (it has no copy of this shard's
		// xlogs); scan them on its behalf. See serveCreditRescan.
		r.serveCreditRescan(peer)
	}
}

// redoGroupVouchable checks one CREDITREDO group against local state: this
// replica may re-sign it iff it is a credit group it could have produced
// for the requester at settlement time.
func (r *Replica) redoGroupVouchable(requester types.ReplicaID, group []types.Payment) bool {
	if !r.creditGroupInShard(r.cfg.Self, group) {
		return false
	}
	for _, p := range group {
		if r.cfg.RepOf(p.Beneficiary) != requester {
			return false
		}
		settled, ok := r.state.SettledAt(p.Spender, p.Seq)
		if !ok || settled != p {
			return false
		}
	}
	return true
}

// acceptCreditTab accumulates the groups a chain-signed wave endorses: a
// group whose certificate is already complete, or whose recomputed digest
// does not sit at its claimed chain index, is dropped, and a frame left
// with no group is dropped before its chain is hashed.
func (r *Replica) acceptCreditTab(m creditTabMsg) {
	var accepted []*creditState
	for _, g := range m.Groups {
		if !r.creditGroupInShard(m.Signer, g.Group) {
			continue
		}
		cs := r.lookupCreditState(g.Group)
		if cs == nil || cs.digest != m.Chain[g.ChainIdx] {
			continue
		}
		accepted = append(accepted, cs)
	}
	if len(accepted) == 0 {
		return
	}
	// One ECDSA over the chain digest covers every accepted group. It
	// runs on the verifier pool, off the transport dispatch goroutine,
	// and accumulation re-enters through the completion callback; the
	// verifier memo collapses re-deliveries and — at this replica — the
	// same chain arriving for other groups. Accumulation order across
	// signers is irrelevant: any f+1 endorsements form the dependency.
	r.cfg.Verifier.VerifyReplicaDetached(r.cfg.Registry, m.Signer, CreditChainDigest(m.Chain), m.Sig, func(valid bool) {
		if !valid {
			return
		}
		for _, cs := range accepted {
			r.creditVerified(cs, m.Signer, m.Sig, m.Chain)
		}
	})
}

// creditGroupInShard checks that every spender of the group belongs to the
// signer's shard — else the f+1 counting would mix shards.
func (r *Replica) creditGroupInShard(signer types.ReplicaID, group []types.Payment) bool {
	if len(group) == 0 {
		return false
	}
	shard := r.cfg.ShardOf(group[0].Spender)
	if r.cfg.ReplicaShard(signer) != shard {
		return false
	}
	for _, p := range group[1:] {
		if r.cfg.ShardOf(p.Spender) != shard {
			return false
		}
	}
	return true
}

// lookupCreditState finds (or creates) the accumulator for a credit group,
// hashing the group only on first sight: the bucket key is cheap (first
// payment ID + length) and buckets are disambiguated by exact group
// equality, so the k copies of a group sent by k signers cost one
// CreditGroupDigest, not k. Returns nil when the certificate is already
// complete — the remaining ~m-f-1 CREDIT copies are dropped without the
// expensive signature verification.
func (r *Replica) lookupCreditState(group []types.Payment) *creditState {
	k := creditKey{first: group[0].ID(), n: len(group)}
	r.creditMu.Lock()
	defer r.creditMu.Unlock()
	for _, cs := range r.creditAccum[k] {
		if slices.Equal(cs.group, group) {
			if cs.done {
				return nil
			}
			return cs
		}
	}
	cs := &creditState{group: group, digest: CreditGroupDigest(group)}
	r.creditAccum[k] = append(r.creditAccum[k], cs)
	return cs
}

// creditVerified accumulates a verified CREDIT signature, with its chain,
// into the group's certificate. This replica's
// own signature is never accumulated: its settlement endorses its own
// clients' groups (endorseOwnCredit), and counting both would count it
// twice.
func (r *Replica) creditVerified(cs *creditState, signer types.ReplicaID, sig []byte, chain []types.Digest) {
	r.creditMu.Lock()
	if cs.done || signer == r.cfg.Self || cs.cert.Has(signer) {
		r.creditMu.Unlock()
		return
	}
	cs.cert.Sigs = append(cs.cert.Sigs, DepSig{Replica: signer, Sig: sig, Chain: chain})
	r.creditEndorsed(cs)
}

// endorseOwnCredit records this replica's own settlement of a group whose
// beneficiaries it represents as one of the group's f+1 endorsements.
func (r *Replica) endorseOwnCredit(group []types.Payment) {
	cs := r.lookupCreditState(group)
	if cs == nil {
		return // certificate already complete
	}
	r.creditMu.Lock()
	if cs.done || cs.self {
		r.creditMu.Unlock()
		return
	}
	cs.self = true
	r.creditEndorsed(cs)
}

// creditEndorsed completes a group's certificate once it holds f+1
// endorsements — its signatures plus this replica's own settlement — then
// registers the dependency and retries held submissions. creditMu is held
// on entry and released on return.
func (r *Replica) creditEndorsed(cs *creditState) {
	n := cs.cert.Len()
	if cs.self {
		n++
	}
	if n < r.cfg.F+1 {
		r.creditMu.Unlock()
		return
	}
	cs.done = true
	dep := Dependency{Group: cs.group, Cert: cs.cert}
	r.creditMu.Unlock()

	beneficiaries := make(map[types.ClientID]struct{})
	for _, p := range dep.Group {
		if r.cfg.RepOf(p.Beneficiary) == r.cfg.Self {
			beneficiaries[p.Beneficiary] = struct{}{}
		}
	}
	r.repMu.Lock()
	for b := range beneficiaries {
		if !r.depAddsCreditLocked(b, dep) {
			// Every credit is already held or materialized — a CREDITREDO
			// regrouping that raced the original certificate. Registering
			// it would only grow the attachable set with dead weight.
			delete(beneficiaries, b)
			continue
		}
		r.repDeps[b] = append(r.repDeps[b], dep)
	}
	if r.wal != nil && len(beneficiaries) > 0 {
		// Log the certificate before any retry can attach it to a payment:
		// until its credits settle into usedDeps, this record is the
		// beneficiaries' only durable claim to the funds. Replay re-adds
		// it to the attachable set; restoreProjections strips it again if
		// a recovered reservation already carries it.
		w := wire.NewWriter(dependencyRecordSize(dep))
		appendDependencyRecord(w, dep)
		r.wal.Append(recDep, w.Bytes())
	}
	// New funds may unblock held submissions.
	r.retryPendingLocked(beneficiaries) // releases repMu
}

// retryPendingLocked re-evaluates held submissions of the given clients in
// FIFO order. repMu is held; it is released (via afterBufferLocked).
func (r *Replica) retryPendingLocked(clients map[types.ClientID]struct{}) {
	for c := range clients {
		queue := r.pendingSubmits[c]
		released := 0
		for _, h := range queue {
			if !r.fundedLocked(h.payment) {
				break
			}
			r.bufferLocked(h.payment, h.sig)
			released++
		}
		if released == len(queue) {
			delete(r.pendingSubmits, c)
		} else if released > 0 {
			r.pendingSubmits[c] = queue[released:]
		}
	}
	r.afterBufferLocked()
}

// PendingSubmits reports how many submissions are held back awaiting
// funds for the given client (Astro II representative-side queue).
func (r *Replica) PendingSubmits(c types.ClientID) int {
	r.repMu.Lock()
	defer r.repMu.Unlock()
	return len(r.pendingSubmits[c])
}

// screenDependencies verifies every dependency certificate attached to the
// batch from origin — outside any settlement lock, fanned out across the
// verifier pool — and strips the ones that fail, so State credits what
// remains without re-verifying inside the settlement critical section.
// Stripping a bad certificate is exactly the semantics State's inline
// check used to apply ("unverifiable certificate: ignore, do not
// credit"); every correct replica screens the same delivered batch from
// the same origin identically, so replicated state stays consistent.
func (r *Replica) screenDependencies(origin types.ReplicaID, entries []BatchEntry) {
	if r.cfg.Version != AstroII {
		return
	}
	type check struct {
		entry, dep int
		f          *verifier.Future
	}
	var checks []check
	for ei := range entries {
		for di := range entries[ei].Deps {
			d := entries[ei].Deps[di]
			f := r.cfg.Verifier.VerifyAsync(func() bool {
				return VerifyDependency(d, origin, r.cfg.Verifier, r.cfg.Registry, r.cfg.F, r.cfg.ShardOf, r.cfg.ReplicaShard) == nil
			}, nil)
			checks = append(checks, check{entry: ei, dep: di, f: f})
		}
	}
	if len(checks) == 0 {
		return
	}
	var invalid map[[2]int]bool
	for _, c := range checks {
		if !c.f.Wait() {
			if invalid == nil {
				invalid = make(map[[2]int]bool)
			}
			invalid[[2]int{c.entry, c.dep}] = true
		}
	}
	if invalid == nil {
		return
	}
	for ei := range entries {
		deps := entries[ei].Deps
		kept := deps[:0:len(deps)]
		for di := range deps {
			if !invalid[[2]int{ei, di}] {
				kept = append(kept, deps[di])
			}
		}
		entries[ei].Deps = kept
	}
}
