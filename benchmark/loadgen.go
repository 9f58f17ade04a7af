package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"astro/internal/core"
	"astro/internal/types"
)

// The load generator: one sender goroutine and one confirmation reaper
// drive every client of a deployment, so the generator never uses more
// than two of the host's cores. The sender owns the seeded random stream;
// the deployment receives nothing but the generated payments.

// ringSize bounds the per-client table of due times. Outstanding payments
// per client never exceed perClientCap, so a slot is never reused before
// its confirmation was reaped.
const ringSize = 4096

// lateAfter is how long after its due time a payment may be sent before
// it counts towards harness.late_share.
const lateAfter = time.Millisecond

// failAfter is the confirmation limit: a payment confirmed later than
// this after its due time, or not at all, is failed.
const failAfter = 10 * time.Second

// maxClients is the number of cases in the reaper's select.
const maxClients = 8

// spender is the generator's state for one client identity.
type spender struct {
	c   *core.Client
	id  types.ClientID
	idx int            // position among the generator's clients
	ep  *traceEndpoint // the client's decorated endpoint; nil on untraced runs
	// peers are the spenders this one may pay.
	peers []types.ClientID

	sent      atomic.Uint64 // payments submitted; equals the last sequence number
	confirmed atomic.Uint64
	due       [ringSize]atomic.Int64 // due time by seq % ringSize, ns since epoch

	lastSeq uint64 // reaper only: highest confirmed sequence number
}

func (s *spender) outstanding() int { return int(s.sent.Load() - s.confirmed.Load()) }

// openPhase is one measured stretch of open loop: its window, what the
// reaper recorded of the payments due in it, and what the sender did.
type openPhase struct {
	rate float64
	// The window in ns since epoch, written by the sender before the
	// phase starts and read by the reaper; empty until then.
	start, end atomic.Int64
	// Reaper-owned until the generator's done is closed.
	lat []int64 // due -> confirm, ns
	// Sender-owned.
	sent   uint64
	late   uint64  // sent more than lateAfter after due
	delays []int64 // send time minus due time of every payment, ns
	minOut [4]int  // least total outstanding seen in each quarter
}

func (ph *openPhase) init() {
	ph.start.Store(math.MaxInt64)
	ph.end.Store(math.MaxInt64)
}

// quantileMS is over all the phase's payments; for use once the generator
// is closed.
func (ph *openPhase) quantileMS(q float64) float64 {
	return quantileMS(sortedCopy(ph.lat), ph.sent, q)
}

type generator struct {
	w     workload
	epoch time.Time
	rng   *rand.Rand
	sp    []*spender
	tr    *tracer // nil on untraced runs

	credit   chan struct{} // reaper -> sender: a confirmation was reaped
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// The two measured stretches of open loop: the light phase at
	// lightRate and the open phase at the workload's rate.
	light, open openPhase

	// The sat window in ns since epoch, written by the sender before the
	// phase starts and read by the reaper.
	satStart, satEnd atomic.Int64
	satConfirmed     atomic.Uint64 // confirmations reaped inside a sat window

	// Reaper-owned until done is closed.
	slow     uint64 // confirmed later than failAfter
	disorder uint64 // confirmations out of sequence order or duplicated

	// Sender-owned.
	paidTo   map[types.ClientID]uint64 // payments sent to each spender
	measured uint64                    // payments sent after set-up
}

// newGenerator starts the reaper. seed and stream pick the random
// sequence of payments. On a traced run tr and the clients' decorated
// endpoints are given, in the clients' order.
func newGenerator(w workload, seed, stream uint64, clients []*core.Client, tr *tracer, eps []*traceEndpoint) *generator {
	if len(clients) > maxClients {
		panic("generator: more clients than the reaper can select on")
	}
	g := &generator{
		w:      w,
		epoch:  time.Now(),
		rng:    rand.New(rand.NewPCG(seed, stream)),
		tr:     tr,
		paidTo: make(map[types.ClientID]uint64),
		credit: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	g.light.init()
	g.open.init()
	g.satStart.Store(math.MaxInt64)
	g.satEnd.Store(math.MaxInt64)
	for i, c := range clients {
		s := &spender{c: c, id: c.ID(), idx: i}
		if tr != nil {
			s.ep = eps[i]
		}
		for _, o := range clients {
			// Clients of the 2x4 topology live on shard id%2.
			if o != c && (!w.crossShard || uint64(o.ID())%2 != uint64(c.ID())%2) {
				s.peers = append(s.peers, o.ID())
			}
		}
		g.sp = append(g.sp, s)
	}
	if tr != nil {
		g.epoch = tr.epoch // one clock for the generator's spans and the decorators'
	}
	go g.reap()
	return g
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// close stops the reaper and waits for it; the reaper's counters may be
// read afterwards. Safe to call more than once.
func (g *generator) close() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// beneficiary draws the next payee for s from the seeded stream.
func (g *generator) beneficiary(s *spender) types.ClientID {
	return s.peers[g.rng.IntN(len(s.peers))]
}

// pay submits one payment of amount 1 from s, timed from due.
func (g *generator) pay(s *spender, to types.ClientID, due int64) error {
	seq := s.sent.Load() + 1
	s.due[seq%ringSize].Store(due)
	s.sent.Store(seq)
	g.paidTo[to]++
	var start int64
	if g.tr.on() {
		start = g.now()
		g.tr.beginSubmit(s, seq)
	}
	id, err := s.c.Pay(to, 1)
	if g.tr.on() {
		g.tr.endSubmit(s, seq, start, g.now())
	}
	if err != nil {
		return fmt.Errorf("client %d pay: %w", s.id, err)
	}
	if uint64(id.Seq) != seq {
		return fmt.Errorf("client %d: sequence %d assigned, %d expected", s.id, id.Seq, seq)
	}
	return nil
}

// sent is every payment the deployment has been sent, set-up included.
func (g *generator) sent() uint64 {
	var n uint64
	for _, s := range g.sp {
		n += s.sent.Load()
	}
	return n
}

func (g *generator) totalOutstanding() int {
	n := 0
	for _, s := range g.sp {
		n += s.outstanding()
	}
	return n
}

// waitCredit parks the sender until the reaper reports a confirmation or
// d passes.
func (g *generator) waitCredit(t *time.Timer, d time.Duration) {
	t.Reset(d)
	select {
	case <-g.credit:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}

// openLoop sends at a fixed total rate for dur, round-robin over the
// clients. Every payment has a due time on the schedule and is timed from
// it, whether the generator ran late or the client sat at its cap. ph
// records the phase; with ph nil it is warm-up.
func (g *generator) openLoop(rate float64, dur time.Duration, ph *openPhase) error {
	interval := float64(time.Second) / rate
	start := g.now()
	end := start + int64(dur)
	if ph != nil {
		ph.rate = rate
		ph.end.Store(end)
		ph.start.Store(start)
		for q := range ph.minOut {
			ph.minOut[q] = math.MaxInt
		}
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= end {
			return nil
		}
		if ahead := due - g.now(); ahead > int64(50*time.Microsecond) {
			// The sender runs on a locked thread (see main) and sleeps in
			// the kernel directly: through the Go scheduler's timers, with
			// both cores busy, three times as many payments left late.
			ts := syscall.NsecToTimespec(ahead)
			_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the loop re-reads the clock
		}
		s := g.sp[i%len(g.sp)]
		for s.outstanding() >= perClientCap {
			g.waitCredit(timer, time.Millisecond)
			if g.now()-due > int64(failAfter) {
				return fmt.Errorf("client %d stuck at %d outstanding payments for %v", s.id, perClientCap, failAfter)
			}
		}
		if ph != nil {
			d := max(g.now()-due, 0)
			ph.delays = append(ph.delays, d)
			if d > int64(lateAfter) {
				ph.late++
			}
			q := int(4 * (due - start) / int64(dur))
			if out := g.totalOutstanding(); out < ph.minOut[q] {
				ph.minOut[q] = out
			}
			ph.sent++
		}
		g.measured++
		if err := g.pay(s, g.beneficiary(s), due); err != nil {
			return err
		}
	}
}

// closedLoop keeps up to window payments outstanding per client until
// next has nothing left for any client or the deadline (ns since epoch)
// passes. A payment is due the instant it is sent.
func (g *generator) closedLoop(window int, deadline int64, next func(*spender) (types.ClientID, bool)) error {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// burst bounds how many payments one client gets before the others
	// are looked at, so that refilling stays fair.
	const burst = 32
	for {
		progressed, exhausted := false, 0
		for _, s := range g.sp {
			for n := 0; n < burst && s.outstanding() < window; n++ {
				if g.now() >= deadline {
					return nil
				}
				to, ok := next(s)
				if !ok {
					exhausted++
					break
				}
				if err := g.pay(s, to, g.now()); err != nil {
					return err
				}
				progressed = true
			}
		}
		if exhausted == len(g.sp) || g.now() >= deadline {
			return nil
		}
		if !progressed {
			g.waitCredit(timer, time.Millisecond)
		}
	}
}

// firstPayments has every client make one payment and waits for all the
// confirmations: the end of set-up.
func (g *generator) firstPayments(timeout time.Duration) error {
	for _, s := range g.sp {
		if err := g.pay(s, s.peers[0], g.now()); err != nil {
			return err
		}
	}
	if !g.drain(timeout) {
		return fmt.Errorf("%d first payments unconfirmed after %v", g.totalOutstanding(), timeout)
	}
	return nil
}

// satWindow is one slice of a sat phase: payments confirmed in it, the
// CPU time the deployment used in it, and its length.
type satWindow struct {
	paid    uint64
	cpu     float64 // seconds
	elapsed time.Duration
}

// satResult is one sat phase, whole and in slices of satSlice. The
// reported rates are medians over the slices: a garbage collection, a
// snapshot or a neighbour's burst slows a slice or two of a run, and the
// mean over the run with them.
type satResult struct {
	paid    uint64
	elapsed time.Duration
	windows []satWindow
}

const satSlice = 250 * time.Millisecond

// medianPPS is the median slice's confirmed payments per second.
func medianPPS(windows []satWindow) float64 {
	var v []float64
	for _, w := range windows {
		v = append(v, float64(w.paid)/w.elapsed.Seconds())
	}
	return median(v)
}

// medianCPUUS is the median slice's CPU-µs per confirmed payment; slices
// in which nothing confirmed have no such figure and are left out.
func medianCPUUS(windows []satWindow) float64 {
	var v []float64
	for _, w := range windows {
		if w.paid > 0 {
			v = append(v, w.cpu*1e6/float64(w.paid))
		}
	}
	return median(v)
}

// saturate is the sat phase: closed loop, satOutstanding payments
// outstanding in total, for dur or until budget payments were sent. cpu
// reads the deployment's CPU time so far.
func (g *generator) saturate(dur time.Duration, budget uint64, cpu func() (float64, error)) (satResult, error) {
	start := g.now()
	g.satEnd.Store(start + int64(dur))
	g.satStart.Store(start)
	var res satResult
	var sent uint64
	var cpuErr error
	mark := func() (int64, uint64, float64) {
		c, err := cpu()
		if err != nil {
			cpuErr = err
		}
		return g.now(), g.satConfirmed.Load(), c
	}
	t0, paid0, cpu0 := mark()
	first := paid0
	next := func(s *spender) (types.ClientID, bool) {
		if sent == budget {
			return 0, false
		}
		if g.now()-t0 >= int64(satSlice) {
			t1, paid1, cpu1 := mark()
			res.windows = append(res.windows, satWindow{paid: paid1 - paid0, cpu: cpu1 - cpu0, elapsed: time.Duration(t1 - t0)})
			t0, paid0, cpu0 = t1, paid1, cpu1
		}
		sent++
		return g.beneficiary(s), true
	}
	err := g.closedLoop(satOutstanding/len(g.sp), start+int64(dur), next)
	end := g.now()
	g.satEnd.Store(end) // no later than set above: the budget may have ended the phase early
	g.measured += sent
	res.paid, res.elapsed = g.satConfirmed.Load()-first, time.Duration(end-start)
	if err == nil {
		err = cpuErr
	}
	if err == nil && len(res.windows) == 0 {
		err = fmt.Errorf("%w: the sat phase was shorter than one %v slice", errUnreportable, satSlice)
	}
	return res, err
}

// drain waits until nothing is outstanding; false means the timeout
// passed first.
func (g *generator) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for g.totalOutstanding() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		g.waitCredit(timer, time.Millisecond)
	}
	return true
}

// reap receives every client's confirmations on one goroutine. Unused
// cases hold nil channels, which never become ready.
func (g *generator) reap() {
	defer close(g.done)
	var ch [maxClients]<-chan types.PaymentID
	for i, s := range g.sp {
		ch[i] = s.c.Confirmations()
	}
	for {
		var id types.PaymentID
		var i int
		select {
		case id = <-ch[0]:
			i = 0
		case id = <-ch[1]:
			i = 1
		case id = <-ch[2]:
			i = 2
		case id = <-ch[3]:
			i = 3
		case id = <-ch[4]:
			i = 4
		case id = <-ch[5]:
			i = 5
		case id = <-ch[6]:
			i = 6
		case id = <-ch[7]:
			i = 7
		case <-g.stop:
			return
		}
		g.onConfirm(g.sp[i], id)
	}
}

func (g *generator) onConfirm(s *spender, id types.PaymentID) {
	now := g.now()
	seq := uint64(id.Seq)
	if id.Spender != s.id || seq != s.lastSeq+1 || seq > s.sent.Load() {
		g.disorder++
		if seq <= s.lastSeq || seq > s.sent.Load() {
			return // duplicate or never sent: not a confirmation of anything outstanding
		}
	}
	s.lastSeq = seq
	due := s.due[seq%ringSize].Load()
	lat := now - due
	if lat > int64(failAfter) {
		g.slow++
	}
	for _, ph := range [...]*openPhase{&g.light, &g.open} {
		if due >= ph.start.Load() && due < ph.end.Load() {
			ph.lat = append(ph.lat, lat)
		}
	}
	if now >= g.satStart.Load() && now < g.satEnd.Load() {
		g.satConfirmed.Add(1)
	}
	if g.tr.on() {
		g.tr.payDone(s, seq, due, now)
	}
	s.confirmed.Add(1)
	select {
	case g.credit <- struct{}{}:
	default:
	}
}

// quantileMS returns the q-quantile of the open phase's latencies in
// milliseconds over all attempted payments: one that never confirmed sits
// beyond every confirmed one, and reads as failAfter.
func quantileMS(sorted []int64, attempted uint64, q float64) float64 {
	if attempted == 0 {
		return 0
	}
	i := int(q * float64(attempted-1))
	if i >= len(sorted) {
		return float64(failAfter) / float64(time.Millisecond)
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// trustworthy is the generator's guard: it refuses a phase whose latency
// would describe the harness or an overloaded host, not the system. p50
// is the phase's median latency in ms.
//
// Send delay: every payment is timed from its due time, so what the
// generator ran late is inside the latency reported. When the median
// delay is more than a quarter of the median latency, the row says more
// about the generator's scheduling than about the system. (The mean delay
// is a handful of late wake-ups: in a light phase of 468 payments one of
// 50 ms adds 0.1 ms to it and nothing to either median.)
//
// Backlog: the least outstanding count of the last quarter well above
// that of the quarter before means the troughs no longer return to the
// steady level, so the offered rate is above this host's capacity. Peaks
// are ignored on purpose: a snapshot stall is behaviour to be measured.
func (ph *openPhase) trustworthy(p50 float64) error {
	if delay := ph.sendDelayMedianMS(); delay > 0.25*p50 {
		return fmt.Errorf("%w: half the payments due at %.0f pps left more than %.3f ms late, over a quarter of the %.3f ms median latency; the generator, not the system, set it",
			errUnreportable, ph.rate, delay, p50)
	}
	if q3, q4 := ph.minOut[2], ph.minOut[3]; q4 > 512 && q4 > 2*q3+256 {
		return fmt.Errorf("%w: outstanding payments kept rising through the phase (least per quarter %v); %.0f pps is above this host's capacity",
			errUnreportable, ph.minOut, ph.rate)
	}
	return nil
}

func (ph *openPhase) sendDelayMedianMS() float64 {
	if len(ph.delays) == 0 {
		return 0
	}
	return float64(sortedCopy(ph.delays)[len(ph.delays)/2]) / float64(time.Millisecond)
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}
