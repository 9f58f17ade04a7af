package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/metrics"
)

// Task is one unit of work. Tasks must not call Runtime.Close and must not
// assume which goroutine runs them; keyed tasks may additionally assume
// the flow guarantees documented on Flow.
type Task func()

// item is a queued task stamped with its enqueue time, so lanes can track
// queue latency without the submitter's cooperation.
type item struct {
	fn  Task
	enq time.Time
}

// Flow scheduling states; see Flow.state.
const (
	flowIdle uint8 = iota
	flowQueued
	flowRunning
)

// Tunables. Queue capacities bound memory and convert overload into
// submitter backpressure, exactly like the dispatch queues and verifier
// task channel they replace.
const (
	// DefaultFlowQueue is the per-flow task capacity used when a flow is
	// created with capacity <= 0 (matches the old per-channel dispatch
	// queue depth).
	DefaultFlowQueue = 1024
	// laneTaskQueue is the per-lane unkeyed task capacity (matches the
	// old verifier channel's workers*128 sizing at typical lane counts).
	laneTaskQueue = 256
	// flowDrainBatch bounds how many tasks one scheduling of a flow may
	// run before the flow is requeued, so one busy flow cannot starve the
	// rest of its lane's run queue.
	flowDrainBatch = 32
	// parkSweep is the idle lane's periodic steal sweep. It is the
	// liveness backstop for any wake token lost to a full buffer: parked
	// lanes rescan every runnable queue at least this often.
	parkSweep = time.Millisecond
	// helpPark bounds how long an external helper (Runtime.Help,
	// verifier future waits) sleeps between steal sweeps.
	helpPark = 200 * time.Microsecond
)

// Runtime is a lane-based worker runtime: a fixed set of worker goroutines
// ("lanes"), each draining a bounded local run queue, with bounded
// work-stealing between lanes. It is the single concurrency substrate of
// the hot path — transport dispatch, settlement stripe fan-out, and
// signature verify/sign work all execute on the same lanes. See doc.go
// for the ordering and blocking discipline.
type Runtime struct {
	lanes []*lane

	done chan struct{}

	// closeMu guards closed against concurrent submissions: unkeyed
	// submitters hold the read side across their (non-blocking) channel
	// sends, so no task can be enqueued after Close has decided to drain.
	closeMu sync.RWMutex
	closed  bool

	wg sync.WaitGroup

	// rr spreads flow homes and unkeyed submissions round-robin across
	// lanes: consecutive flow creations land on distinct lanes, so the
	// channels of one endpoint (or the stripes of one replica) are
	// lane-affine AND spread, without a hash's collision luck.
	rr atomic.Uint64

	// keyNS hands out disjoint key namespaces (KeySpace), so independent
	// components never alias each other's flows on the shared runtime.
	keyNS atomic.Uint64

	flowMu      sync.Mutex
	flows       map[uint64]*Flow
	flowsClosed bool
}

// lane is one worker: a pinned goroutine, a run queue of runnable flows,
// and a bounded channel of unkeyed (stealable) tasks.
type lane struct {
	idx  int
	wake chan struct{} // capacity 1; non-blocking nudges

	mu   sync.Mutex
	runq []*Flow // runnable flows, FIFO

	tasks chan item // unkeyed work; any lane or helper may receive

	// parked is set while the lane is blocked waiting for work; wakers
	// consult it to decide whether a nudge is needed.
	parked atomic.Bool

	executed atomic.Uint64 // tasks run on this lane (keyed + unkeyed)
	stolen   atomic.Uint64 // flows/tasks this lane took from siblings
	latency  metrics.EWMA  // submit→start queue latency
}

// New creates a runtime with the given number of lanes; lanes <= 0 selects
// max(2, GOMAXPROCS). A single-lane runtime is fully serial — every task,
// keyed or not, runs on the one goroutine in submission-visible order —
// which some fixtures rely on; multi-lane runtimes steal.
func New(lanes int) *Runtime {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
		if lanes < 2 {
			// A lone lane cannot steal around a task blocked in protocol
			// wait: keep a second lane even on single-core hosts so one
			// wedged handler never stalls every other flow. (The OS
			// multiplexes the two onto one core, as it did the dispatch
			// goroutines this runtime replaces.)
			lanes = 2
		}
	}
	rt := &Runtime{
		done:  make(chan struct{}),
		flows: make(map[uint64]*Flow),
	}
	for i := 0; i < lanes; i++ {
		rt.lanes = append(rt.lanes, &lane{
			idx:   i,
			wake:  make(chan struct{}, 1),
			tasks: make(chan item, laneTaskQueue),
		})
	}
	rt.wg.Add(lanes)
	for _, ln := range rt.lanes {
		go rt.run(ln)
	}
	return rt
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the process-wide shared runtime, creating it on first
// use. It is never closed; every component of an in-process deployment
// shares its lanes, which is what sizes concurrency to the host instead of
// to the number of components.
func Default() *Runtime {
	defaultOnce.Do(func() { defaultRT = New(0) })
	return defaultRT
}

// Lanes returns the number of lanes.
func (rt *Runtime) Lanes() int { return len(rt.lanes) }

// KeySpace returns a fresh key namespace base. Each call reserves 2^32
// keys; components derive their flow keys as base+i so distinct components
// on the shared runtime can never collide.
func (rt *Runtime) KeySpace() uint64 {
	return rt.keyNS.Add(1) << 32
}

func (rt *Runtime) isClosed() bool {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	return rt.closed
}

// Flow returns (creating if needed) the flow registered under key.
// capacity bounds its queue (<= 0 selects DefaultFlowQueue) and applies
// only at creation. After Close, Flow returns an unregistered closed flow
// whose submissions run inline.
func (rt *Runtime) Flow(key uint64, capacity int) *Flow {
	if capacity <= 0 {
		capacity = DefaultFlowQueue
	}
	rt.flowMu.Lock()
	defer rt.flowMu.Unlock()
	if fl, ok := rt.flows[key]; ok {
		return fl
	}
	fl := &Flow{
		rt:   rt,
		key:  key,
		home: int(rt.rr.Add(1)) % len(rt.lanes),
		cap:  capacity,
	}
	fl.notFull.L = &fl.mu
	if rt.flowsClosed {
		fl.closed = true
		return fl
	}
	rt.flows[key] = fl
	return fl
}

// Submit enqueues an unkeyed task: it may run on any lane, in no
// particular order relative to other tasks, and may be stolen by waiting
// helpers. Submit blocks until the task is accepted — it never runs the
// task on the caller while the runtime is open (the verifier's signing
// hand-off depends on that) — and runs it inline only after Close.
func (rt *Runtime) Submit(t Task) {
	it := item{fn: t, enq: time.Now()}
	for {
		rt.closeMu.RLock()
		if rt.closed {
			rt.closeMu.RUnlock()
			t()
			return
		}
		if ln := rt.trySpill(it); ln != nil {
			rt.closeMu.RUnlock()
			rt.wakeFor(ln)
			return
		}
		rt.closeMu.RUnlock()
		// Every unkeyed queue is full: the pool is saturated. Run one
		// queued task on the caller before retrying — never t itself
		// (the never-on-caller contract), but draining someone else's
		// task guarantees progress even when the submitters ARE the
		// lanes (a dispatch-flow handler feeding the signer can find
		// every lane blocked right here; sleeping alone would then
		// wedge the runtime). Only if nothing is stealable either do we
		// back off and wait for an external drainer.
		if rt.RunStolen() {
			continue
		}
		select {
		case <-rt.done:
		case <-time.After(helpPark):
		}
	}
}

// TrySubmit enqueues an unkeyed task without blocking; false means every
// lane's queue is full (or the runtime is closed) and the caller should
// run the task inline.
func (rt *Runtime) TrySubmit(t Task) bool {
	it := item{fn: t, enq: time.Now()}
	rt.closeMu.RLock()
	if rt.closed {
		rt.closeMu.RUnlock()
		return false
	}
	ln := rt.trySpill(it)
	rt.closeMu.RUnlock()
	if ln == nil {
		return false
	}
	rt.wakeFor(ln)
	return true
}

// trySpill offers the item to the round-robin home lane first, then to
// every other lane, non-blocking. Returns the accepting lane, or nil.
// Callers hold closeMu.RLock (so the send cannot race a drain decision).
func (rt *Runtime) trySpill(it item) *lane {
	home := int(rt.rr.Add(1)) % len(rt.lanes)
	for i := 0; i < len(rt.lanes); i++ {
		ln := rt.lanes[(home+i)%len(rt.lanes)]
		select {
		case ln.tasks <- it:
			return ln
		default:
		}
	}
	return nil
}

// wakeFor nudges the lane now holding new work and, if that lane is busy
// running something, one parked sibling — the "wake a thief" rule that
// makes stealing responsive instead of timer-driven.
func (rt *Runtime) wakeFor(ln *lane) {
	rt.wakeLane(ln)
	if !ln.parked.Load() {
		rt.wakeAnyParked(ln.idx)
	}
}

func (rt *Runtime) wakeLane(ln *lane) {
	select {
	case ln.wake <- struct{}{}:
	default:
	}
}

func (rt *Runtime) wakeAnyParked(except int) {
	for i, ln := range rt.lanes {
		if i != except && ln.parked.Load() {
			rt.wakeLane(ln)
			return
		}
	}
}

// RunStolen pops one unkeyed task from any lane and runs it on the
// caller. It is the helping primitive: goroutines blocked on a result
// whose computation may be queued behind them lend themselves to the
// runtime instead of deadlocking or idling. Keyed flows are never stolen
// here — they carry ordering guarantees a foreign goroutine's stack
// cannot honor mid-wait (see doc.go).
func (rt *Runtime) RunStolen() bool {
	start := int(rt.rr.Add(1)) % len(rt.lanes)
	for i := 0; i < len(rt.lanes); i++ {
		ln := rt.lanes[(start+i)%len(rt.lanes)]
		select {
		case it := <-ln.tasks:
			rt.execOn(nil, it)
			return true
		default:
		}
	}
	return false
}

// Help runs stealable (unkeyed) work on the caller until done closes —
// the waiting side of keyed fan-out: a goroutine that has queued keyed
// work on the lanes and must wait for it contributes verification and
// signing throughput meanwhile.
func (rt *Runtime) Help(done <-chan struct{}) {
	var timer *time.Timer
	for {
		select {
		case <-done:
			return
		default:
		}
		if rt.RunStolen() {
			continue
		}
		if timer == nil {
			timer = time.NewTimer(helpPark)
			defer timer.Stop()
		} else {
			timer.Reset(helpPark)
		}
		select {
		case <-done:
			return
		case <-timer.C:
		}
	}
}

// HelpFlows runs work on the caller until done closes, preferring the
// given flows — the caller's own fan-out — and falling back to stealable
// unkeyed tasks. Unlike Help, it guarantees the caller's flows make
// progress even when every lane is blocked waiting: a deliverer that
// fanned a settlement wave across stripe flows and runs ON a lane (the
// Bracha protocol delivers on the dispatch path) can always finish its
// own wave by draining those flows itself. Callers must own the flows in
// the sense that their tasks cannot re-enter this wait.
func (rt *Runtime) HelpFlows(done <-chan struct{}, flows []*Flow) {
	var timer *time.Timer
	for {
		select {
		case <-done:
			return
		default:
		}
		progressed := false
		for _, fl := range flows {
			if fl.TryDrain() {
				progressed = true
			}
		}
		if progressed || rt.RunStolen() {
			continue
		}
		if timer == nil {
			timer = time.NewTimer(helpPark)
			defer timer.Stop()
		} else {
			timer.Reset(helpPark)
		}
		select {
		case <-done:
			return
		case <-timer.C:
		}
	}
}

// execOn runs an item on a lane (ln non-nil) or a helper (ln nil).
// Helpers are outside the lane set, so their executions carry no per-lane
// accounting.
func (rt *Runtime) execOn(ln *lane, it item) {
	if ln == nil {
		it.fn()
		return
	}
	ln.latency.Observe(time.Since(it.enq))
	it.fn()
	ln.executed.Add(1)
}

// run is one lane's goroutine.
func (rt *Runtime) run(ln *lane) {
	defer rt.wg.Done()
	timer := time.NewTimer(parkSweep)
	defer timer.Stop()
	for {
		select {
		case <-rt.done:
			rt.drainAndExit(ln)
			return
		default:
		}
		if rt.findWork(ln) {
			continue
		}
		// Park: own queues are selectable directly; siblings' work
		// arrives via wake tokens, with the periodic sweep as the
		// lost-token backstop.
		ln.parked.Store(true)
		if rt.findWork(ln) { // re-check after publishing parked
			ln.parked.Store(false)
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(parkSweep)
		select {
		case <-rt.done:
			ln.parked.Store(false)
			rt.drainAndExit(ln)
			return
		case <-ln.wake:
		case it := <-ln.tasks:
			ln.parked.Store(false)
			rt.execOn(ln, it)
			continue
		case <-timer.C:
		}
		ln.parked.Store(false)
	}
}

// findWork runs one scheduling quantum: own flows first (protocol
// handlers are latency-sensitive), then own unkeyed tasks, then one
// bounded steal sweep over the siblings. Reports whether anything ran.
func (rt *Runtime) findWork(ln *lane) bool {
	if fl := ln.popFlow(); fl != nil {
		rt.drainFlow(ln, fl)
		return true
	}
	select {
	case it := <-ln.tasks:
		rt.execOn(ln, it)
		return true
	default:
	}
	return rt.steal(ln)
}

// steal makes one sweep over the sibling lanes, taking a runnable flow or
// one unkeyed task. One sweep per idle iteration bounds the stealing: a
// lane with local work never scans, and an idle lane's scan is O(lanes).
func (rt *Runtime) steal(ln *lane) bool {
	n := len(rt.lanes)
	for i := 1; i < n; i++ {
		sib := rt.lanes[(ln.idx+i)%n]
		if fl := sib.popFlow(); fl != nil {
			ln.stolen.Add(1)
			rt.drainFlow(ln, fl)
			return true
		}
		select {
		case it := <-sib.tasks:
			ln.stolen.Add(1)
			rt.execOn(ln, it)
			return true
		default:
		}
	}
	return false
}

// popFlow pops run-queue entries until one resolves to a claimable flow
// (queued→running) or the queue empties. Entries are hints: a flow a
// waiter already claimed via TryDrain is skipped.
func (ln *lane) popFlow() *Flow {
	for {
		ln.mu.Lock()
		if len(ln.runq) == 0 {
			ln.mu.Unlock()
			return nil
		}
		fl := ln.runq[0]
		copy(ln.runq, ln.runq[1:])
		ln.runq = ln.runq[:len(ln.runq)-1]
		ln.mu.Unlock()
		fl.mu.Lock()
		if fl.state == flowQueued {
			fl.state = flowRunning
			fl.mu.Unlock()
			return fl
		}
		fl.mu.Unlock() // stale hint; the flow was claimed or emptied
	}
}

func (ln *lane) pushFlow(fl *Flow) {
	ln.mu.Lock()
	ln.runq = append(ln.runq, fl)
	ln.mu.Unlock()
}

// drainFlow runs up to flowDrainBatch tasks of a flow the caller has
// claimed (fl.state is flowRunning, so no other drainer can touch it).
// ln is nil when the caller is a foreign helper rather than a lane. A
// flow left nonempty is requeued on the draining lane — affinity follows
// the work, so a stolen flow keeps running where its state is now cached
// — or back on its home lane when a helper drained it.
func (rt *Runtime) drainFlow(ln *lane, fl *Flow) {
	for i := 0; i < flowDrainBatch; i++ {
		fl.mu.Lock()
		if fl.head == len(fl.q) {
			fl.q = fl.q[:0]
			fl.head = 0
			fl.state = flowIdle
			fl.mu.Unlock()
			return
		}
		it := fl.q[fl.head]
		fl.q[fl.head] = item{} // release the closure
		fl.head++
		fl.notFull.Signal()
		fl.mu.Unlock()
		rt.execOn(ln, it)
	}
	// Still nonempty: release the claim and requeue.
	fl.mu.Lock()
	fl.state = flowQueued
	fl.mu.Unlock()
	if ln != nil {
		ln.pushFlow(fl)
		return
	}
	home := rt.lanes[fl.home]
	home.pushFlow(fl)
	rt.wakeFor(home)
}

// Close stops the lanes after draining every queued task — keyed and
// unkeyed; nothing submitted before Close is lost (verification futures
// must resolve). Submissions after Close run inline on the caller, at
// which point flow ordering guarantees no longer apply. Close must not be
// called from a task, and not on the Default runtime. Safe to call twice.
func (rt *Runtime) Close() {
	rt.closeMu.Lock()
	if rt.closed {
		rt.closeMu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.closed = true
	rt.closeMu.Unlock()

	// Mark every flow closed and wake blocked submitters (they run
	// inline once they observe the flag). After this loop no flow can
	// accept another task, so the lanes' final drain is exhaustive.
	rt.flowMu.Lock()
	rt.flowsClosed = true
	flows := make([]*Flow, 0, len(rt.flows))
	for _, fl := range rt.flows {
		flows = append(flows, fl)
	}
	rt.flowMu.Unlock()
	for _, fl := range flows {
		fl.mu.Lock()
		fl.closed = true
		fl.notFull.Broadcast()
		fl.mu.Unlock()
	}

	close(rt.done)
	rt.wg.Wait()
}

// drainAndExit is a lane's shutdown path: run everything still queued —
// own flows, own tasks, then whatever can be stolen — until a full sweep
// finds nothing. No new work can be queued at this point (flows are
// closed, unkeyed submitters observe closed under closeMu), so an empty
// sweep is final. Tasks running during the drain that submit more work
// execute it inline, which keeps the drain finite.
func (rt *Runtime) drainAndExit(ln *lane) {
	// Barrier: unkeyed submitters hold closeMu.RLock across their sends;
	// taking the write lock once guarantees every pre-close send has
	// either landed or observed closed.
	rt.closeMu.Lock()
	rt.closeMu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	for rt.findWorkClosing(ln) {
	}
}

// findWorkClosing is findWork without parking (shutdown never waits).
func (rt *Runtime) findWorkClosing(ln *lane) bool {
	return rt.findWork(ln)
}

// Flow is a serial FIFO task queue with lane affinity — the unit of
// ordered execution. Tasks submitted to one flow run exactly in
// submission order and never concurrently with each other, regardless of
// which lane happens to drain the flow: a flow is scheduled onto at most
// one lane at a time and moves wholesale when stolen. Two flows sharing a
// key (Runtime.Flow returns the same instance) therefore interleave only
// at task boundaries — the property protocol channels and their timers
// rely on.
//
// Submit blocks while the flow's queue is full: bounded memory, with
// backpressure on the producer (the endpoint reader, the BRB delivery
// goroutine), never loss.
type Flow struct {
	rt   *Runtime
	key  uint64
	home int
	cap  int

	mu      sync.Mutex
	notFull sync.Cond
	q       []item
	head    int
	// state tracks the flow's scheduling: idle (empty, nowhere), queued
	// (has work, claimable — a run-queue entry points at it), running
	// (claimed by exactly one drainer). The invariant "nonempty ⇒ queued
	// or running" guarantees exactly-one drainer and no forgotten work.
	// Run-queue entries are hints: a drainer claims the flow by moving
	// queued→running under fl.mu, and stale entries are skipped — which
	// is what lets a *waiter* (TryDrain) claim a flow out from under the
	// lanes without racing them.
	state  uint8
	closed bool

	submitted atomic.Uint64
}

// Key returns the flow's key.
func (fl *Flow) Key() uint64 { return fl.key }

// Home returns the flow's preferred lane index (its initial affinity;
// stealing may run it elsewhere).
func (fl *Flow) Home() int { return fl.home }

// Depth returns the number of queued tasks.
func (fl *Flow) Depth() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.q) - fl.head
}

// Release unregisters the flow from the runtime, so a long-lived shared
// runtime does not accumulate the flows of components that come and go.
// The caller must guarantee no further Submit calls; tasks already queued
// still drain normally (drainers hold the flow by pointer, not by key).
// A later Runtime.Flow with the same key creates a fresh flow.
func (fl *Flow) Release() {
	fl.rt.flowMu.Lock()
	if fl.rt.flows[fl.key] == fl {
		delete(fl.rt.flows, fl.key)
	}
	fl.rt.flowMu.Unlock()
}

// Submit enqueues a task in FIFO position, blocking while the queue is
// full. After the runtime closes, tasks run inline on the caller.
func (fl *Flow) Submit(t Task) {
	fl.mu.Lock()
	for {
		if fl.closed {
			fl.mu.Unlock()
			t()
			return
		}
		if len(fl.q)-fl.head < fl.cap {
			break
		}
		fl.notFull.Wait()
	}
	if fl.head > 0 && len(fl.q) == cap(fl.q) {
		// Compact the consumed prefix before append would grow the
		// backing array: without this, a flow that never fully empties
		// (sustained backpressure) drags its dead prefix into every
		// reallocation and grows without bound. After compaction the
		// array is bounded by the live items, i.e. by fl.cap.
		n := copy(fl.q, fl.q[fl.head:])
		clear(fl.q[n:]) // release the dead closures
		fl.q = fl.q[:n]
		fl.head = 0
	}
	fl.q = append(fl.q, item{fn: t, enq: time.Now()})
	fl.submitted.Add(1)
	kick := fl.state == flowIdle
	if kick {
		fl.state = flowQueued
	}
	fl.mu.Unlock()
	if kick {
		ln := fl.rt.lanes[fl.home]
		ln.pushFlow(fl)
		fl.rt.wakeFor(ln)
	}
}

// TryDrain claims the flow if it is runnable and runs one bounded batch
// of its queued tasks on the caller; it reports whether anything ran.
// Any goroutine may drain a flow — exclusion and FIFO come from the
// claim protocol, not from lane identity — but callers must only drain
// flows whose tasks they know cannot re-enter their own wait state (the
// settlement deliverer drains its own stripe flows; see HelpFlows).
func (fl *Flow) TryDrain() bool {
	fl.mu.Lock()
	if fl.state != flowQueued || fl.head == len(fl.q) {
		fl.mu.Unlock()
		return false
	}
	fl.state = flowRunning
	fl.mu.Unlock()
	fl.rt.drainFlow(nil, fl)
	return true
}
