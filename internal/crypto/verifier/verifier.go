// Package verifier provides the parallel signature verifier of the
// BRB/payment hot path.
//
// Astro settles payments by merely broadcasting them, so end-to-end
// throughput is dominated by ECDSA verification on the broadcast delivery
// path (paper §VI-A amortizes it with 256-payment batches). Verifying
// serially, inline on the transport dispatch path, leaves all but one
// core idle exactly where the system is CPU-bound. This package supplies
// the standard remedy from the BFT literature — crypto pipelining:
//
//   - a Verifier with asynchronous (VerifyAsync, callbacks/futures) and
//     batched (VerifyBatch, VerifyClientBatch) entry points, so protocol
//     layers hand signature checks off and re-enter their state machines
//     on completion;
//   - a CertTally that settles a quorum certificate whose signature checks
//     complete on any goroutine, early-exiting as soon as the threshold is
//     confirmed or failure is certain (brb's commit verification fans its
//     checks out through VerifyReplicaDetached and votes into one);
//   - a bounded memoization cache keyed by (signer, digest, signature), so
//     re-delivered commits, echoed acks, and an origin re-verifying its
//     own aggregated certificate never pay ECDSA twice;
//   - a blocking submission entry point (Async) for work that must never
//     run on the caller — the BRB ack *sign* path hands its ECDSA off
//     from transport dispatch flows.
//
// Execution rides the unified lane scheduler (internal/sched; see
// exec.go): verify/sign tasks are unkeyed, stealable work on the same
// lanes that run transport dispatch and settlement fan-out, and goroutines
// blocked on a Future lend themselves to the lanes while they wait. A
// single worker degrades gracefully: calls run serially but the memo cache
// still applies, so single-core hosts pay at most a hash per duplicate
// check.
//
// Verifiers are safe for concurrent use. A process-wide shared verifier
// is available through Default; it executes on the shared lane runtime
// (sched.Default()), so every replica of an in-process simulation sizes
// its crypto to the host's actual core count.
package verifier

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"astro/internal/crypto"
	"astro/internal/sched"
	"astro/internal/types"
)

// Verifier is a batch verifier with a bounded memo cache, executing on a
// lane runtime (see exec.go).
type Verifier struct {
	ex   *laneExec
	memo *memoCache

	hits   atomic.Uint64
	misses atomic.Uint64
}

// DefaultMemoSize is the memo-cache capacity used when none is configured:
// large enough to hold the in-flight signatures of several hundred
// concurrent broadcast instances, small enough to be negligible in memory.
const DefaultMemoSize = 8192

// Option configures a Verifier.
type Option func(*options)

type options struct {
	memoSize int
	runtime  *sched.Runtime
}

// WithMemoSize sets the memo-cache capacity. Zero disables memoization
// (used by benchmarks measuring raw verification throughput).
func WithMemoSize(n int) Option {
	return func(o *options) { o.memoSize = n }
}

// WithRuntime runs the verifier's work on an existing lane runtime
// instead of creating a private one; the runtime is shared, so Close does
// not stop it. Overrides the worker count.
func WithRuntime(rt *sched.Runtime) Option {
	return func(o *options) { o.runtime = rt }
}

// New creates a verifier backed by the given number of workers; workers
// <= 0 sizes to the host (GOMAXPROCS, with the lane runtime's floor of
// two). Without WithRuntime the backend is a private lane runtime with
// exactly that many lanes — a 1-worker verifier is fully serial, which
// wedge-style fixtures rely on.
func New(workers int, opts ...Option) *Verifier {
	o := options{memoSize: DefaultMemoSize}
	for _, opt := range opts {
		opt(&o)
	}
	rt, own := o.runtime, false
	if rt == nil {
		rt, own = sched.New(workers), true
	}
	return &Verifier{
		ex:   newLaneExec(rt, own),
		memo: newMemoCache(o.memoSize),
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Verifier
)

// Default returns the process-wide shared verifier, creating it on first
// use over the shared lane runtime (sched.Default()) — verification and
// signing ride the same lanes as transport dispatch and settlement
// fan-out, sized once to the host. It is never closed.
func Default() *Verifier {
	defaultOnce.Do(func() {
		defaultPool = New(0, WithRuntime(sched.Default()))
	})
	return defaultPool
}

// Workers returns the backend's parallelism.
func (v *Verifier) Workers() int { return v.ex.workers() }

// MemoStats returns the lifetime memo-cache hit and miss counts.
func (v *Verifier) MemoStats() (hits, misses uint64) {
	return v.hits.Load(), v.misses.Load()
}

// Close stops the backend after the queued work drains. Submissions after
// Close (and submissions that find the queue full) run inline on the
// caller, so no verification is ever lost. A shared lane runtime
// (WithRuntime, Default) is not stopped — only this verifier's
// submissions are. Close must not be called on the Default pool.
func (v *Verifier) Close() {
	v.ex.close()
}

// submit runs f on the backend, or inline on the caller when the backend
// is closed or saturated. Inline fallback keeps the system live under
// overload (natural backpressure) and makes deadlock impossible: no
// submitter ever blocks waiting for a worker.
func (v *Verifier) submit(f func()) {
	if !v.ex.trySubmit(f) {
		f()
	}
}

// submitBlocking runs f on the backend, blocking the caller until the
// task is enqueued rather than falling back inline when the queue is
// full. It is the entry point for work that must never execute on the
// calling goroutine — BRB ack *signing* is handed off from transport
// dispatch flows, and an inline ECDSA there would stall a whole channel's
// delivery. Blocking instead is safe (the backend never waits on dispatch
// progress) and is itself the backpressure: a replica flooded with
// prepares slows its reading of further prepares, not its other channels.
// Only a closed backend degrades to running f on the caller.
func (v *Verifier) submitBlocking(f func()) {
	if !v.ex.submitBlocking(f) {
		f()
	}
}

// Async schedules arbitrary work on the pool, blocking until enqueued
// (never running it on the caller while the pool is open). Protocol layers
// use it to move signing — the one remaining serial ECDSA of the hot path
// — onto the same workers that verification runs on (the BRB ack signer
// drains its pending-ack queue through here).
func (v *Verifier) Async(f func()) {
	v.submitBlocking(f)
}

// TryAsync schedules f on the pool when a slot is free and otherwise runs
// it inline on the caller. It is the submission form for continuations
// that may already be executing on a pool worker (the BRB commit
// verification): a blocking enqueue from a worker can deadlock a full
// queue against itself, while the inline fallback degrades overload to
// the caller's CPU — the documented backpressure — and can never wedge.
func (v *Verifier) TryAsync(f func()) {
	v.submit(f)
}

// Future resolves to the result of an asynchronous verification.
type Future struct {
	ex   *laneExec
	done chan struct{}
	ok   bool
}

// Wait blocks until the verification completes and reports its result.
// While waiting, the caller lends itself to the backend as an extra
// worker (running queued, stealable work), so waiting on a future from
// inside a backend callback cannot deadlock.
func (f *Future) Wait() bool {
	f.ex.waitDone(f.done)
	return f.ok
}

// VerifyAsync schedules an arbitrary boolean check on the pool. The
// callback, if non-nil, runs exactly once with the result (on a worker
// goroutine, or on the caller when the pool degrades to inline execution).
// No memoization is applied; use the typed entry points for that.
func (v *Verifier) VerifyAsync(check func() bool, cb func(bool)) *Future {
	f := &Future{ex: v.ex, done: make(chan struct{})}
	v.submit(func() {
		ok := check()
		f.ok = ok
		close(f.done)
		if cb != nil {
			cb(ok)
		}
	})
	return f
}

// VerifyDetached is VerifyAsync for callers that only want the callback:
// no future is allocated. This is the fire-and-forget form protocol
// handlers use per message, so it must not cost a heap allocation per
// call beyond the closures themselves.
func (v *Verifier) VerifyDetached(check func() bool, cb func(bool)) {
	v.submit(func() { cb(check()) })
}

// Memo key domains. Signatures by replicas and clients live in distinct
// namespaces so a colliding numeric ID cannot alias cache entries.
const (
	domainReplica byte = 0x01
	domainClient  byte = 0x02
)

func memoKey(domain byte, signer uint64, digest types.Digest, sig []byte) memoKeyT {
	h := sha256.New()
	var hdr [9]byte
	hdr[0] = domain
	binary.BigEndian.PutUint64(hdr[1:], signer)
	h.Write(hdr[:])
	h.Write(digest[:])
	h.Write(sig)
	var k memoKeyT
	h.Sum(k[:0])
	return k
}

// memoLookup consults the cache; reports (result, hit).
func (v *Verifier) memoLookup(k memoKeyT) (bool, bool) {
	ok, hit := v.memo.get(k)
	if hit {
		v.hits.Add(1)
	} else {
		v.misses.Add(1)
	}
	return ok, hit
}

// verifyMemoized runs the check through the cache, synchronously on the
// caller. The expensive path is taken at most once per (signer, digest,
// sig) while the entry stays cached.
func (v *Verifier) verifyMemoized(k memoKeyT, check func() bool) bool {
	if ok, hit := v.memoLookup(k); hit {
		return ok
	}
	ok := check()
	v.memo.put(k, ok)
	return ok
}

// verifyMemoizedDetached is verifyMemoized on the pool: memo hits call
// back immediately on the caller, misses are scheduled.
func (v *Verifier) verifyMemoizedDetached(k memoKeyT, check func() bool, cb func(bool)) {
	if ok, hit := v.memoLookup(k); hit {
		cb(ok)
		return
	}
	v.submit(func() {
		ok := check()
		v.memo.put(k, ok)
		cb(ok)
	})
}

// VerifyReplica synchronously verifies a replica signature against reg,
// through the memo cache.
func (v *Verifier) VerifyReplica(reg *crypto.Registry, id types.ReplicaID, digest types.Digest, sig []byte) bool {
	k := memoKey(domainReplica, uint64(id), digest, sig)
	return v.verifyMemoized(k, func() bool { return reg.VerifySig(id, digest, sig) })
}

// PrimeReplica records sig as replica id's valid signature over digest
// without checking it. It is for the signer itself, right after signing:
// its own ack inside a commit certificate and its own CREDIT inside a
// dependency certificate then resolve from the memo instead of paying
// ECDSA for a signature this process produced. The memo key includes the
// signature bytes, so nothing but that exact signature is vouched for.
func (v *Verifier) PrimeReplica(id types.ReplicaID, digest types.Digest, sig []byte) {
	v.memo.put(memoKey(domainReplica, uint64(id), digest, sig), true)
}

// VerifyReplicaDetached schedules a memoized replica-signature check. The
// callback runs exactly once with the result; on a memo hit it runs
// immediately on the caller.
func (v *Verifier) VerifyReplicaDetached(reg *crypto.Registry, id types.ReplicaID, digest types.Digest, sig []byte, cb func(bool)) {
	k := memoKey(domainReplica, uint64(id), digest, sig)
	v.verifyMemoizedDetached(k, func() bool { return reg.VerifySig(id, digest, sig) }, cb)
}

// VerifyClient synchronously verifies a client signature against keys,
// through the memo cache.
func (v *Verifier) VerifyClient(keys *crypto.ClientKeys, id types.ClientID, digest types.Digest, sig []byte) bool {
	k := memoKey(domainClient, uint64(id), digest, sig)
	return v.verifyMemoized(k, func() bool { return keys.VerifySig(id, digest, sig) })
}

// Check is one work item of VerifyBatch.
type Check func() bool

// VerifyBatch fans the checks out across the pool and resolves to whether
// every one of them passed. The first failure cancels checks that have not
// started yet (they resolve as skipped, the batch as failed).
func (v *Verifier) VerifyBatch(checks []Check) *Future {
	f := &Future{ex: v.ex, done: make(chan struct{})}
	n := len(checks)
	if n == 0 {
		f.ok = true
		close(f.done)
		return f
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var failed atomic.Bool
	for _, c := range checks {
		c := c
		v.submit(func() {
			if !failed.Load() && !c() {
				failed.Store(true)
			}
			if remaining.Add(-1) == 0 {
				f.ok = !failed.Load()
				close(f.done)
			}
		})
	}
	return f
}

// ClientSig is one client signature of a batch.
type ClientSig struct {
	Client types.ClientID
	Digest types.Digest
	Sig    []byte
}

// VerifyClientBatch fans a batch of client-signature checks across the
// pool, memoized per signature, resolving to whether all are valid. This
// is the replica's pre-endorsement check of a 256-payment batch (paper
// §VI-A) without holding any protocol lock.
func (v *Verifier) VerifyClientBatch(keys *crypto.ClientKeys, sigs []ClientSig) *Future {
	checks := make([]Check, len(sigs))
	for i, s := range sigs {
		s := s
		checks[i] = func() bool { return v.VerifyClient(keys, s.Client, s.Digest, s.Sig) }
	}
	return v.VerifyBatch(checks)
}

// CertTally is the atomic completion state of a continuation-style
// certificate check: votes arrive from any goroutine, and the callback
// fires exactly once when the tally settles. need is the count of valid
// votes that accepts; budget is the count of invalid votes tolerated
// before acceptance becomes impossible (one more rejects). Exactly one
// terminal condition fires if every pending signature votes: with
// pending = need + budget outstanding votes, fewer than need valid votes
// forces more than budget invalid ones.
type CertTally struct {
	valid, invalid atomic.Int32
	need, budget   int32
	done           atomic.Bool
	cb             func(bool)
}

// NewCertTally builds a tally that calls cb exactly once. A need of zero
// or less is already-decided: cb(true) fires before NewCertTally returns.
func NewCertTally(need, budget int, cb func(bool)) *CertTally {
	t := &CertTally{need: int32(need), budget: int32(budget), cb: cb}
	if need <= 0 {
		t.done.Store(true)
		cb(true)
	}
	return t
}

// Vote records one signature verdict. Votes after the tally has settled
// are dropped; the winning vote invokes the callback on its own stack
// (a verifier lane, a helper inside Help/RunStolen, or the submitter on
// an inline memo/serial completion) — see the continuation discipline in
// the sched package docs for what the callback may do there.
func (t *CertTally) Vote(ok bool) {
	if t.done.Load() {
		return
	}
	if ok {
		if t.valid.Add(1) >= t.need && t.done.CompareAndSwap(false, true) {
			t.cb(true)
		}
	} else if t.invalid.Add(1) > t.budget && t.done.CompareAndSwap(false, true) {
		t.cb(false)
	}
}

// Done reports whether the tally has settled — the early-exit probe that
// lets a queued check skip its ECDSA once the outcome is known.
func (t *CertTally) Done() bool { return t.done.Load() }
