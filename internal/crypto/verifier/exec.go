package verifier

import (
	"sync"

	"astro/internal/sched"
)

// laneExec is the execution backend of a Verifier: verification and
// signing run as unkeyed, stealable work on a lane runtime
// (internal/sched) — by default the process-wide shared runtime, so crypto
// work rides the same lanes as transport dispatch and settlement fan-out.
//
// Goroutines blocked on a result (Future.Wait) lend themselves to the
// runtime, so a full queue — or a runtime smaller than the wait graph —
// can never deadlock a waiter on its own unscheduled checks.
type laneExec struct {
	rt  *sched.Runtime
	own bool // Close closes the runtime only if this verifier created it

	closeMu sync.RWMutex
	closed  bool
}

func newLaneExec(rt *sched.Runtime, own bool) *laneExec {
	return &laneExec{rt: rt, own: own}
}

// workers reports the backend's parallelism.
func (e *laneExec) workers() int { return e.rt.Lanes() }

// trySubmit enqueues f without blocking; false means the queue is full or
// the backend closed — the caller runs f inline (overload degrades to the
// caller's CPU, no verification is ever lost).
func (e *laneExec) trySubmit(f func()) bool {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return false
	}
	return e.rt.TrySubmit(f)
}

// submitBlocking enqueues f, blocking until accepted — never running f on
// the caller while the backend is open. False means the backend is closed
// and the caller must run f inline.
func (e *laneExec) submitBlocking(f func()) bool {
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return false
	}
	e.closeMu.RUnlock()
	// Submit blocks until accepted and never runs f on the caller while
	// the runtime is open; a concurrent close degrades it to inline
	// execution, matching the closed contract above.
	e.rt.Submit(f)
	return true
}

// waitDone helps run queued runtime work until done closes.
func (e *laneExec) waitDone(done <-chan struct{}) {
	e.rt.Help(done)
}

// close stops the backend; queued work still drains.
func (e *laneExec) close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	e.closeMu.Unlock()
	if e.own {
		e.rt.Close()
	}
}
