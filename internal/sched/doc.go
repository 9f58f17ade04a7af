// Package sched is the unified lane scheduler: one stripe-affine worker
// runtime that every hot path of the Astro reproduction rides — transport
// dispatch (transport.Mux), settlement stripe fan-out
// (core.Replica.settleEntries), and signature verify/sign work
// (crypto/verifier). Before this package each of those grew its own
// concurrency substrate (per-channel dispatch goroutines, spawn-per-
// delivery settle fan-out, a dedicated verifier worker pool); unifying
// them sizes concurrency to the host once, keeps related work cache-warm
// on one lane, and replaces goroutine churn with persistent workers.
//
// # Model
//
// A Runtime owns N lanes (≈ GOMAXPROCS, floor 2), each a pinned goroutine
// draining a bounded local run queue. Work comes in two classes:
//
//   - Keyed work lives in Flows: per-key FIFO queues with a home lane.
//     A flow is scheduled onto at most one lane at a time and its tasks
//     run in exact submission order, so a flow is a serialization domain
//     — protocol channels, channel+timer pairs (SerializeWith), and
//     settlement stripes each map to one flow. Idle lanes steal runnable
//     flows wholesale from busy or blocked lanes, so affinity is a
//     preference, never a liveness dependence: a handler wedged on one
//     lane delays only its own flow.
//
//   - Unkeyed work (signature checks, pool-side signing drains) is
//     per-task stealable: any lane — and any goroutine blocked waiting on
//     a result, via Runtime.Help/RunStolen — may execute it, in no
//     defined order.
//
// # Ordering discipline
//
// The runtime provides exactly two ordering guarantees, and protocol
// correctness must be argued from them alone:
//
//  1. Per-flow FIFO + mutual exclusion: tasks of one flow never run
//     concurrently and never out of submission order, even across steals
//     (the flow moves between lanes wholesale, at task boundaries).
//  2. Submission-completes-before-return for Flow.Submit and
//     Runtime.Submit: when Submit returns, the task is queued (or, after
//     Close, already executed inline).
//
// Everything else — cross-flow order, unkeyed task order, which lane runs
// what — is unspecified. In particular, per-spender settlement FIFO holds
// because one spender maps to one stripe flow and delivery enqueues each
// batch's stripe tasks before the next batch's (the deliverer waits for
// its wave); per-channel transport FIFO holds because one channel maps to
// one flow fed by the single endpoint reader.
//
// # Blocking discipline
//
// Lanes are a fixed-size resource; a task that blocks parks a whole lane.
// The rules that keep the system live:
//
//   - A task may block on protocol waits (semaphores, full downstream
//     queues, verification futures) only if the thing it waits on makes
//     progress without this lane. Verification futures qualify: waiters
//     help by stealing unkeyed work (Future.Wait, Runtime.Help), so even
//     a single-lane runtime cannot deadlock on its own verification.
//   - A task that fans work out across flows and must wait for it uses
//     Runtime.HelpFlows(done, flows): the waiter drains ITS OWN flows on
//     its own stack (plus stealable unkeyed work), so the wait completes
//     even when every lane is blocked in the same kind of wait — the
//     Bracha protocol delivers on a dispatch lane, and its settlement
//     wave must not depend on any other lane being free. Arbitrary keyed
//     flows are never drained by general helpers (Runtime.Help runs
//     unkeyed work only): a helper's stack may already hold protocol
//     locks or semaphore slots (the BRB commit bound), and running
//     another flow's handler there can re-enter those. HelpFlows callers
//     vouch that the tasks of the flows they name cannot re-enter the
//     wait (settlement stripe tasks are pure state application).
//   - Runtime.Submit blocks until accepted and never runs the task on
//     the caller while the runtime is open — the contract the async
//     sign path needs ("an ECDSA never executes on a dispatch flow").
//
// # Continuation discipline
//
// No hot path spawns a goroutine per message; BRB commit verification
// uses completion continuations instead: a verification request
// carries a callback that fires exactly once when the tally settles.
// Continuations run in one of three places — inline on the submitter
// (memo hit, saturated pool, or a tally already decided), on the
// lane executing the final unkeyed verify task, or on a helper's stack
// inside Help/RunStolen (a blocked waiter may steal the task whose
// completion fires the callback). The rules that make that safe:
//
//   - A continuation must be non-blocking toward the verifier: it may
//     not wait on another verification future or submit-and-wait, since
//     the stack it runs on may BE a verifier lane or a helper already
//     inside Help. Fire-and-forget resubmission (Async, Detached) is
//     fine — those only enqueue.
//   - A continuation may re-enter a keyed flow only via Submit/HelpFlows
//     under the same vouching rule as any task: the flows it names must
//     not re-enter the wait it is completing. The BRB delivery drain
//     qualifies — commitVerified takes the protocol mutex, appends to
//     the FIFO queues, and drains deliveries without ever waiting on the
//     verifier (the validator's future was resolved before commit).
//   - Callers must not assume which stack runs the continuation, and in
//     particular must not hold a lock across the verify call that the
//     continuation also takes, unless the API is documented
//     inline-completion-free (the *Detached verifier entry points may
//     complete inline on the caller; see their comments).
//
// The other half of the discipline is that the hot-path packages (core,
// brb, crypto/verifier, transport) contain no go statement at all — a
// static guard test in core asserts it — so "zero goroutines per settled
// payment" is a property of the source, not a code-review claim.
//
// # Locking internals
//
// Lock order inside the package: Flow.mu and lane.mu are leaves and are
// never held together; Runtime.closeMu.RLock is held across unkeyed
// channel sends (never across blocking waits) so Close can barrier on
// in-flight submissions; flowMu only guards the key→flow registry.
// Close marks every flow closed (late submitters run inline), then lanes
// drain every queue to empty before exiting — nothing accepted before
// Close is lost, which is what lets verification futures always resolve.
package sched
