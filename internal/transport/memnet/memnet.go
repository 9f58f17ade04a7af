// Package memnet implements an in-process simulated network for the
// transport.Endpoint interface. It is the experimental substrate replacing
// the paper's EC2 deployment, and it models only the network itself:
// links have configurable latency distributions, nodes have a bounded
// egress bandwidth, and nodes can crash-stop. Link faults — extra delay
// on a node or link (`tc netem delay`), loss, and partitions — are not
// memnet's business: they are injected by wrapping endpoints with
// internal/transport/chaos, which works the same over tcpnet.
//
// Each endpoint delivers inbound messages through a single reader
// goroutine, which drains a bounded inbox; protocols layered through
// transport.Mux then fan out across the lane scheduler, one flow per
// channel (see the Mux concurrency contract). A node never sends to
// itself: Send to self returns transport.ErrSelfSend.
package memnet

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// Errors returned by endpoint operations.
var (
	ErrClosed  = errors.New("memnet: endpoint closed")
	ErrCrashed = errors.New("memnet: node crashed")
)

// LatencyModel computes the one-way delay for a message from one node to
// another. u is a uniformly distributed sample in [0,1) for jitter.
type LatencyModel func(from, to transport.NodeID, u float64) time.Duration

// Fixed returns a latency model with constant delay d.
func Fixed(d time.Duration) LatencyModel {
	return func(_, _ transport.NodeID, _ float64) time.Duration { return d }
}

// Uniform returns a latency model drawing delays uniformly from [lo, hi).
func Uniform(lo, hi time.Duration) LatencyModel {
	if hi < lo {
		lo, hi = hi, lo
	}
	span := float64(hi - lo)
	return func(_, _ transport.NodeID, u float64) time.Duration {
		return lo + time.Duration(u*span)
	}
}

// Regions models the paper's deployment: nodes are assigned round-robin to
// k regions; intra-region links draw from [intraLo, intraHi), inter-region
// links from [interLo, interHi). With k=4 and inter ≈ 10ms one-way this
// reproduces the ~20ms RTT across the four EC2 regions in Europe.
func Regions(k int, intraLo, intraHi, interLo, interHi time.Duration) LatencyModel {
	if k < 1 {
		k = 1
	}
	intra := Uniform(intraLo, intraHi)
	inter := Uniform(interLo, interHi)
	return func(from, to transport.NodeID, u float64) time.Duration {
		if int(from)%k == int(to)%k {
			return intra(from, to, u)
		}
		return inter(from, to, u)
	}
}

// EuropeWAN is the default latency model used by the experiment harness:
// four regions, sub-millisecond intra-region latency and ~10ms one-way
// (~20ms RTT) between regions.
func EuropeWAN() LatencyModel {
	return Regions(4, 300*time.Microsecond, 900*time.Microsecond, 8*time.Millisecond, 12*time.Millisecond)
}

// Stats are cumulative network-wide counters.
type Stats struct {
	MessagesSent uint64
	BytesSent    uint64
	Dropped      uint64
}

// inboxSize is the per-node inbound queue capacity.
const inboxSize = 1 << 14

// Network is a simulated message-passing network.
type Network struct {
	latency LatencyModel

	// egress bandwidth model: bytes/sec per node, 0 = unlimited
	bandwidth float64
	overhead  int
	busyMu    sync.Mutex
	busy      map[transport.NodeID]time.Time

	msgs    atomic.Uint64
	bytes   atomic.Uint64
	dropped atomic.Uint64

	prng atomic.Uint64

	mu      sync.RWMutex
	nodes   map[transport.NodeID]*node
	crashed map[transport.NodeID]bool
	closed  bool
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the link latency model. The default is zero latency.
func WithLatency(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithSeed seeds the latency jitter generator, making latency draws
// reproducible.
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.prng.Store(seed) }
}

// WithBandwidth models per-node egress capacity: messages leaving a node
// serialize onto its link at bytesPerSec, each charged overheadBytes of
// framing on top of its payload. This is what makes leader-based protocols
// bottleneck on the leader and all-to-all broadcasts bottleneck globally —
// the paper's deployment had ~30 MiB/s between EC2 regions. Zero disables
// the model.
func WithBandwidth(bytesPerSec float64, overheadBytes int) Option {
	return func(n *Network) {
		n.bandwidth = bytesPerSec
		n.overhead = overheadBytes
	}
}

// New creates a network.
func New(opts ...Option) *Network {
	n := &Network{
		latency: Fixed(0),
		nodes:   make(map[transport.NodeID]*node),
		crashed: make(map[transport.NodeID]bool),
		busy:    make(map[transport.NodeID]time.Time),
	}
	n.prng.Store(0x9e3779b97f4a7c15)
	for _, o := range opts {
		o(n)
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	return Stats{
		MessagesSent: n.msgs.Load(),
		BytesSent:    n.bytes.Load(),
		Dropped:      n.dropped.Load(),
	}
}

// ResetStats zeroes the cumulative counters.
func (n *Network) ResetStats() {
	n.msgs.Store(0)
	n.bytes.Store(0)
	n.dropped.Store(0)
}

// Node returns the endpoint with the given address, creating it if needed.
func (n *Network) Node(id transport.NodeID) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		return nd
	}
	nd := &node{
		net:   n,
		id:    id,
		inbox: make(chan envelope, inboxSize),
		done:  make(chan struct{}),
	}
	n.nodes[id] = nd
	go nd.dispatch()
	return nd
}

// Crash marks a node as crash-stopped: its own sends fail with
// ErrCrashed, frames addressed to it are dropped, and its dispatch
// discards whatever is still in flight. This is node state, not a link
// rule, which is why it lives here and not in chaos. Crash-stop is
// permanent for the protocols under study; Restore exists for tests.
func (n *Network) Crash(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restore clears a node's crashed flag (test helper; the paper's
// experiments use crash-stop only).
func (n *Network) Restore(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether a node is crash-stopped.
func (n *Network) Crashed(id transport.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// Close shuts the network down; all endpoints stop dispatching.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, nd := range n.nodes {
		nd.closeLocked()
	}
}

type envelope struct {
	from    transport.NodeID
	payload []byte
}

type node struct {
	net   *Network
	id    transport.NodeID
	inbox chan envelope
	done  chan struct{}

	handler atomic.Pointer[transport.Handler]
	closed  atomic.Bool
}

var _ transport.Endpoint = (*node)(nil)

func (nd *node) ID() transport.NodeID { return nd.id }

func (nd *node) SetHandler(h transport.Handler) {
	nd.handler.Store(&h)
}

func (nd *node) Close() error {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	nd.closeLocked()
	return nil
}

func (nd *node) closeLocked() {
	if nd.closed.CompareAndSwap(false, true) {
		close(nd.done)
	}
}

func (nd *node) dispatch() {
	for {
		select {
		case <-nd.done:
			return
		case env := <-nd.inbox:
			if nd.net.Crashed(nd.id) {
				continue
			}
			if h := nd.handler.Load(); h != nil {
				(*h)(env.from, env.payload)
			}
		}
	}
}

// Send implements transport.Endpoint. The payload is copied, so callers
// may reuse their buffers. Sending to self returns transport.ErrSelfSend.
func (nd *node) Send(to transport.NodeID, payload []byte) error {
	if to == nd.id {
		return transport.ErrSelfSend
	}
	if nd.closed.Load() {
		return ErrClosed
	}
	net := nd.net

	net.mu.RLock()
	if net.closed {
		net.mu.RUnlock()
		return ErrClosed
	}
	if net.crashed[nd.id] {
		net.mu.RUnlock()
		return ErrCrashed
	}
	dest, ok := net.nodes[to]
	destCrashed := net.crashed[to]
	net.mu.RUnlock()

	net.msgs.Add(1)
	net.bytes.Add(uint64(len(payload)))

	if !ok || destCrashed {
		net.dropped.Add(1)
		return nil // like UDP to a dead host: silently lost
	}

	buf := make([]byte, len(payload))
	copy(buf, payload)
	env := envelope{from: nd.id, payload: buf}

	delay := net.latency(nd.id, to, types.Uniform(&net.prng))
	if net.bandwidth > 0 {
		delay += net.serialize(nd.id, len(payload))
	}
	if delay <= 0 {
		dest.enqueue(env)
		return nil
	}
	if delay > 10*time.Minute {
		delay = 10 * time.Minute // clamp absurd models
	}
	time.AfterFunc(delay, func() { dest.enqueue(env) })
	return nil
}

// serialize charges a message against the sender's egress link and
// returns the extra wait before it reaches the wire: the transmission time
// plus any queueing behind earlier messages.
func (n *Network) serialize(from transport.NodeID, payloadLen int) time.Duration {
	tx := time.Duration(float64(payloadLen+n.overhead) / n.bandwidth * float64(time.Second))
	now := time.Now()
	n.busyMu.Lock()
	start := now
	if b, ok := n.busy[from]; ok && b.After(start) {
		start = b
	}
	end := start.Add(tx)
	n.busy[from] = end
	n.busyMu.Unlock()
	return end.Sub(now)
}

func (nd *node) enqueue(env envelope) {
	select {
	case nd.inbox <- env:
	case <-nd.done:
	}
}
