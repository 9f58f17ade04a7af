package sched

// Ordering-invariant tests for the lane runtime. Run with -race: the FIFO
// and mutual-exclusion tests mutate shared state from flow tasks WITHOUT
// locks, so the race detector itself proves the serialization guarantee.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlowFIFOUnderCrossFlowLoad hammers several flows from concurrent
// submitters and asserts every flow observes its own tasks in submission
// order while other flows churn.
func TestFlowFIFOUnderCrossFlowLoad(t *testing.T) {
	rt := New(4)
	defer rt.Close()

	const flows = 8
	const perFlow = 2000
	type rec struct {
		mu   sync.Mutex
		seqs []int
	}
	recs := make([]*rec, flows)
	var wg sync.WaitGroup
	ns := rt.KeySpace()
	for f := 0; f < flows; f++ {
		recs[f] = &rec{}
		fl := rt.Flow(ns+uint64(f), 64)
		r := recs[f]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perFlow; i++ {
				i := i
				fl.Submit(func() {
					r.mu.Lock()
					r.seqs = append(r.seqs, i)
					r.mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for f := 0; f < flows; f++ {
		for {
			recs[f].mu.Lock()
			n := len(recs[f].seqs)
			recs[f].mu.Unlock()
			if n == perFlow {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flow %d: %d/%d tasks ran", f, n, perFlow)
			}
			time.Sleep(time.Millisecond)
		}
		for i, s := range recs[f].seqs {
			if s != i {
				t.Fatalf("flow %d: position %d holds task %d — FIFO violated", f, i, s)
			}
		}
	}
}

// TestFlowExclusionUnderStealing runs one flow's tasks against a counter
// with NO synchronization while sibling lanes are kept hungry (so steals
// happen): the race detector proves tasks of one flow never overlap, and
// the final count proves none were lost or doubled.
func TestFlowExclusionUnderStealing(t *testing.T) {
	rt := New(4)
	defer rt.Close()

	const n = 5000
	fl := rt.Flow(rt.KeySpace(), 128)
	var counter int // deliberately unsynchronized
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		fl.Submit(func() {
			counter++
			if counter == n {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("counter = %d, want %d", counter, n)
	}
}

// TestStealRescuesBlockedLane wedges a flow's task on its home lane and
// asserts a second flow homed to the SAME lane still runs — stolen by a
// sibling — so a blocked handler never stalls other serialization
// domains. This is the lane-level form of the transport no-head-of-line
// guarantee.
func TestStealRescuesBlockedLane(t *testing.T) {
	rt := New(2)
	defer rt.Close()

	ns := rt.KeySpace()
	// Find two flows with the same home lane (round-robin homes make
	// every second flow collide on a 2-lane runtime).
	fl1 := rt.Flow(ns+1, 16)
	var fl2 *Flow
	for i := uint64(2); ; i++ {
		fl2 = rt.Flow(ns+i, 16)
		if fl2.Home() == fl1.Home() {
			break
		}
	}

	gate := make(chan struct{})
	entered := make(chan struct{})
	fl1.Submit(func() {
		close(entered)
		<-gate // wedge the home lane
	})
	<-entered

	ran := make(chan struct{})
	fl2.Submit(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("flow on a wedged lane was never stolen by the sibling")
	}
	close(gate)
	if s := rt.Stats(); s.Stolen == 0 {
		t.Fatal("stats report zero steals after a forced steal")
	}
}

// TestHelpFlowsWaitOnEveryLane is the regression test for the Bracha
// settlement deadlock: tasks running on EVERY lane each fan work out to
// other flows and wait for it. With Help (unkeyed-only stealing) this
// deadlocks — keyed flows drain only on lanes, and every lane is the
// waiter; HelpFlows must let each waiter finish its own fan-out on its
// own stack.
func TestHelpFlowsWaitOnEveryLane(t *testing.T) {
	rt := New(2)
	defer rt.Close()

	ns := rt.KeySpace()
	const waiters = 4 // more concurrent waiters than lanes
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		src := rt.Flow(ns+uint64(w), 16)
		// Fan-out targets deliberately shared across the waiters, like
		// settlement stripes shared across deliverers.
		targets := []*Flow{
			rt.Flow(ns+100, 64),
			rt.Flow(ns+101, 64),
			rt.Flow(ns+102, 64),
		}
		wg.Add(1)
		src.Submit(func() {
			defer wg.Done()
			done := make(chan struct{})
			var pending atomic.Int32
			pending.Store(int32(len(targets)))
			for _, fl := range targets {
				fl.Submit(func() {
					if pending.Add(-1) == 0 {
						close(done)
					}
				})
			}
			rt.HelpFlows(done, targets)
		})
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("fan-out waiters on every lane deadlocked")
	}
}

// TestUnkeyedStealAndHelp checks that unkeyed work spills across lanes,
// that an external goroutine can steal it (RunStolen), and that Help runs
// work until its done channel closes.
func TestUnkeyedStealAndHelp(t *testing.T) {
	rt := New(2)
	defer rt.Close()

	// Wedge both lanes so queued unkeyed tasks can only run via helpers.
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		rt.Submit(func() {
			started <- struct{}{}
			<-gate
		})
	}
	<-started
	<-started

	var ran atomic.Int32
	const n = 50
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		rt.Submit(func() {
			if ran.Add(1) == n {
				close(done)
			}
		})
	}
	rt.Help(done) // the test goroutine itself must be able to drain them
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	if rt.RunStolen() {
		t.Fatal("RunStolen found work after everything drained")
	}
	close(gate)
}

// TestCloseDrainsQueued asserts Close waits for the in-flight task AND
// runs everything still queued — keyed and unkeyed — before returning
// (futures queued behind a close must still resolve).
func TestCloseDrainsQueued(t *testing.T) {
	rt := New(2)
	fl := rt.Flow(rt.KeySpace(), 64)

	var ran atomic.Int32
	gate := make(chan struct{})
	entered := make(chan struct{})
	fl.Submit(func() {
		close(entered)
		<-gate
		ran.Add(1)
	})
	<-entered
	const queued = 32
	for i := 0; i < queued; i++ {
		fl.Submit(func() { ran.Add(1) })
		rt.Submit(func() { ran.Add(1) })
	}

	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a task was still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := ran.Load(); got != 2*queued+1 {
		t.Fatalf("ran %d tasks through Close, want %d (drain lost work)", got, 2*queued+1)
	}

	// Post-close submissions run inline, immediately.
	inline := false
	fl.Submit(func() { inline = true })
	if !inline {
		t.Fatal("post-Close flow submission did not run inline")
	}
	inline = false
	rt.Submit(func() { inline = true })
	if !inline {
		t.Fatal("post-Close unkeyed submission did not run inline")
	}
	rt.Close() // idempotent
}

// TestFlowBackpressure fills a capacity-1 flow behind a wedged task and
// asserts Submit blocks (bounded memory) without losing anything.
func TestFlowBackpressure(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	fl := rt.Flow(rt.KeySpace(), 1)

	gate := make(chan struct{})
	entered := make(chan struct{})
	fl.Submit(func() {
		close(entered)
		<-gate
	})
	<-entered
	fl.Submit(func() {}) // fills the single slot

	blocked := make(chan struct{})
	var ran atomic.Int32
	go func() {
		for i := 0; i < 16; i++ {
			fl.Submit(func() { ran.Add(1) })
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Submit did not block on a full capacity-1 flow")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked submitter never released after the wedge lifted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != 16 {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d queued tasks, want 16 — backpressure lost work", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitOrDrainRunsUnclaimedFlow: with every lane wedged, a producer
// using SubmitOrDrain on a full flow no lane holds drains it itself rather
// than waiting for a lane that will never come.
func TestSubmitOrDrainRunsUnclaimedFlow(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	gate := make(chan struct{})
	defer close(gate)
	entered := make(chan struct{})
	rt.Flow(rt.KeySpace(), 1).Submit(func() {
		close(entered)
		<-gate // wedge the only lane
	})
	<-entered

	fl := rt.Flow(rt.KeySpace(), 1)
	var first atomic.Bool
	fl.Submit(func() { first.Store(true) }) // full, queued, unclaimed
	done := make(chan struct{})
	go func() {
		fl.SubmitOrDrain(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitOrDrain waited on a flow no lane can drain")
	}
	if !first.Load() {
		t.Fatal("the queued task did not run on the submitter")
	}
}

// TestKeySpaceAndFlowIdentity: same key → same flow; distinct namespaces
// → distinct flows; distinct components can therefore never alias.
func TestKeySpaceAndFlowIdentity(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	ns1, ns2 := rt.KeySpace(), rt.KeySpace()
	if ns1 == ns2 {
		t.Fatal("KeySpace returned the same namespace twice")
	}
	if rt.Flow(ns1+3, 0) != rt.Flow(ns1+3, 0) {
		t.Fatal("same key resolved to two flows")
	}
	if rt.Flow(ns1+3, 0) == rt.Flow(ns2+3, 0) {
		t.Fatal("distinct namespaces aliased one flow")
	}

	// Release unregisters: the key maps to a fresh flow afterwards, and
	// the registry does not grow with departed components.
	fl := rt.Flow(ns1+3, 0)
	before := rt.Stats().Flows
	fl.Release()
	if got := rt.Stats().Flows; got != before-1 {
		t.Fatalf("flows after Release = %d, want %d", got, before-1)
	}
	if rt.Flow(ns1+3, 0) == fl {
		t.Fatal("released flow still resolved by key")
	}
}

// TestSingleLaneSerial: a 1-lane runtime runs everything on one goroutine
// — the fixture mode dedicated pools rely on (wedging the lane provably
// stops all execution).
func TestSingleLaneSerial(t *testing.T) {
	rt := New(1)
	defer rt.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	rt.Submit(func() {
		close(entered)
		<-gate
	})
	<-entered
	ran := make(chan struct{}, 1)
	rt.Submit(func() { ran <- struct{}{} })
	select {
	case <-ran:
		t.Fatal("second task ran while the only lane was wedged")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("task never ran after the lane freed up")
	}
}
