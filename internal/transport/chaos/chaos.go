// Package chaos wraps any transport.Endpoint — memnet or tcpnet — with a
// seeded, schedule-driven network fault injector. It is the only
// link-fault layer in the tree: memnet models a *simulated* network's
// properties (latency distribution, bandwidth, crash-stop) and nothing
// else, while chaos perturbs an already-working transport from the
// outside: probabilistic drop, duplication, frame corruption, reorder,
// per-node and asymmetric per-link delay, and named partitions, all
// switchable at runtime by a timed schedule.
//
// One Controller governs a whole deployment: every node's endpoint is
// wrapped with Controller.Wrap, and the controller resolves the effective
// Rule per (from, to) pair — a directed link override beats a per-source
// override beats the default. All random draws come from a single seeded
// splitmix64 stream, so a chaos run is reproducible given (seed, send
// sequence).
//
// Self-sends are never perturbed: chaos models the links between distinct
// nodes, so a send to self goes straight to the wrapped transport, which
// refuses it with transport.ErrSelfSend.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// Rule describes the perturbations applied to frames on a link. All
// probabilities are in [0,1] and are evaluated independently per frame in
// the fixed order drop → corrupt → duplicate → delay; Reorder is an extra
// chance that a delayed frame is held one extra delay draw so a later
// frame can overtake it on a FIFO transport.
type Rule struct {
	Drop      float64 // probability the frame is silently dropped
	Corrupt   float64 // probability one byte of the frame is flipped
	Duplicate float64 // probability the frame is delivered twice
	Reorder   float64 // probability a delayed frame is held back further

	DelayMin time.Duration // uniform extra delay lower bound
	DelayMax time.Duration // uniform extra delay upper bound (0 = none)

	Block bool // drop everything on this link (hard partition)
	Pass  bool // explicit no-perturbation override (shields a link from broader rules)
}

func (r Rule) zero() bool {
	return r.Drop == 0 && r.Corrupt == 0 && r.Duplicate == 0 &&
		r.Reorder == 0 && r.DelayMax == 0 && !r.Block && !r.Pass
}

// Stats counts perturbations applied so far, for engagement probes in
// tests and the auditor's reports.
type Stats struct {
	Sent       uint64
	Dropped    uint64
	Corrupted  uint64
	Duplicated uint64
	Delayed    uint64
	Reordered  uint64
	Blocked    uint64
}

// Controller holds the chaos configuration for one deployment.
type Controller struct {
	prng atomic.Uint64

	sent      atomic.Uint64
	dropped   atomic.Uint64
	corrupted atomic.Uint64
	dupped    atomic.Uint64
	delayed   atomic.Uint64
	reordered atomic.Uint64
	blocked   atomic.Uint64

	mu     sync.RWMutex
	def    Rule
	nodes  map[transport.NodeID]Rule    // per-source overrides
	links  map[[2]transport.NodeID]Rule // directed [from,to] overrides
	groups map[transport.NodeID]int     // partition membership
}

// NewController creates a controller with no perturbations armed. The
// seed fixes every probabilistic draw the controller will make.
func NewController(seed uint64) *Controller {
	c := &Controller{
		nodes: make(map[transport.NodeID]Rule),
		links: make(map[[2]transport.NodeID]Rule),
	}
	c.prng.Store(seed ^ 0x9e3779b97f4a7c15)
	return c
}

// uniform returns the next draw in [0,1) from the seeded splitmix64
// stream (same generator as memnet's jitter stream).
func (c *Controller) uniform() float64 { return types.Uniform(&c.prng) }

// SetDefault installs the rule applied to links with no more specific
// override.
func (c *Controller) SetDefault(r Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.def = r
}

// SetNodeRule overrides the rule for every frame leaving from. A zero
// Rule removes the override.
func (c *Controller) SetNodeRule(from transport.NodeID, r Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.zero() {
		delete(c.nodes, from)
		return
	}
	c.nodes[from] = r
}

// SetLinkRule overrides the rule for the directed link from → to —
// this is how asymmetric delay is expressed. A zero Rule removes the
// override.
func (c *Controller) SetLinkRule(from, to transport.NodeID, r Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := [2]transport.NodeID{from, to}
	if r.zero() {
		delete(c.links, k)
		return
	}
	c.links[k] = r
}

// Partition splits the listed nodes into isolated groups: frames between
// nodes of different groups are blocked. Unlisted nodes are unaffected.
// Replaces any previous partition.
func (c *Controller) Partition(groups ...[]transport.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = make(map[transport.NodeID]int)
	for g, members := range groups {
		for _, id := range members {
			c.groups[id] = g
		}
	}
}

// Heal removes the current partition.
func (c *Controller) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = nil
}

// Reset returns the controller to its no-perturbation state (default
// rule, overrides, and partition all cleared). Stats are preserved.
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.def = Rule{}
	c.nodes = make(map[transport.NodeID]Rule)
	c.links = make(map[[2]transport.NodeID]Rule)
	c.groups = nil
}

// Stats returns a snapshot of the perturbation counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Sent:       c.sent.Load(),
		Dropped:    c.dropped.Load(),
		Corrupted:  c.corrupted.Load(),
		Duplicated: c.dupped.Load(),
		Delayed:    c.delayed.Load(),
		Reordered:  c.reordered.Load(),
		Blocked:    c.blocked.Load(),
	}
}

// resolve returns the effective rule for a frame from → to plus whether a
// partition blocks the pair.
func (c *Controller) resolve(from, to transport.NodeID) (Rule, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	blocked := false
	if c.groups != nil {
		ga, oka := c.groups[from]
		gb, okb := c.groups[to]
		blocked = oka && okb && ga != gb
	}
	if r, ok := c.links[[2]transport.NodeID{from, to}]; ok {
		return r, blocked
	}
	if r, ok := c.nodes[from]; ok {
		return r, blocked
	}
	return c.def, blocked
}

// Phase is one step of a chaos schedule: at offset At from schedule
// start, Apply is invoked with the controller.
type Phase struct {
	At    time.Duration
	Apply func(*Controller)
}

// StartSchedule arms the phases against the controller and returns a stop
// function cancelling any phases that have not fired yet (already-applied
// phases are not rolled back — schedules end with an explicit healing
// phase when they want a clean exit).
func (c *Controller) StartSchedule(phases []Phase) (stop func()) {
	timers := make([]*time.Timer, 0, len(phases))
	for _, p := range phases {
		p := p
		timers = append(timers, time.AfterFunc(p.At, func() { p.Apply(c) }))
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}

// Wrap interposes the controller on an endpoint's outbound path. The
// returned endpoint implements transport.Endpoint and is what protocols
// (via transport.Mux) should be handed. Inbound frames pass through
// untouched — perturbing each sender's outbound side covers every link
// once without double-counting.
func (c *Controller) Wrap(ep transport.Endpoint) transport.Endpoint {
	return &chaosEndpoint{ctl: c, inner: ep}
}

type chaosEndpoint struct {
	ctl   *Controller
	inner transport.Endpoint
}

var _ transport.Endpoint = (*chaosEndpoint)(nil)

func (e *chaosEndpoint) ID() transport.NodeID           { return e.inner.ID() }
func (e *chaosEndpoint) SetHandler(h transport.Handler) { e.inner.SetHandler(h) }
func (e *chaosEndpoint) Close() error                   { return e.inner.Close() }

func (e *chaosEndpoint) Send(to transport.NodeID, payload []byte) error {
	self := e.inner.ID()
	if to == self { // not a link: the inner transport refuses it
		return e.inner.Send(to, payload)
	}
	c := e.ctl
	c.sent.Add(1)
	rule, blocked := c.resolve(self, to)
	if blocked || rule.Block {
		c.blocked.Add(1)
		return nil // partitions look like packet loss, not errors
	}
	if rule.Pass || rule.zero() {
		return e.inner.Send(to, payload)
	}
	if rule.Drop > 0 && c.uniform() < rule.Drop {
		c.dropped.Add(1)
		return nil
	}

	buf := payload
	if rule.Corrupt > 0 && c.uniform() < rule.Corrupt {
		buf = make([]byte, len(payload))
		copy(buf, payload)
		if len(buf) > 0 {
			// Flip one byte at a seeded position. Flipping buf[0] mangles
			// the mux channel tag, which receivers silently discard —
			// also a legitimate corruption outcome.
			buf[int(c.uniform()*float64(len(buf)))] ^= 0xff
		}
		c.corrupted.Add(1)
	}

	dup := rule.Duplicate > 0 && c.uniform() < rule.Duplicate
	if dup {
		c.dupped.Add(1)
	}

	var delay time.Duration
	if rule.DelayMax > 0 {
		lo, hi := rule.DelayMin, rule.DelayMax
		if hi < lo {
			lo, hi = hi, lo
		}
		delay = lo + time.Duration(c.uniform()*float64(hi-lo))
		if rule.Reorder > 0 && c.uniform() < rule.Reorder {
			delay += lo + time.Duration(c.uniform()*float64(hi-lo))
			c.reordered.Add(1)
		}
	}
	if delay <= 0 {
		if err := e.inner.Send(to, buf); err != nil {
			return err
		}
		if dup {
			return e.inner.Send(to, buf)
		}
		return nil
	}

	c.delayed.Add(1)
	// The Endpoint contract lets callers reuse payload after Send returns,
	// so deferred delivery must hold a private copy.
	if len(buf) > 0 && &buf[0] == &payload[0] {
		buf = make([]byte, len(payload))
		copy(buf, payload)
	}
	time.AfterFunc(delay, func() {
		_ = e.inner.Send(to, buf)
		if dup {
			_ = e.inner.Send(to, buf)
		}
	})
	return nil
}
