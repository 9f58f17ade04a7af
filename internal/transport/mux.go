package transport

import (
	"fmt"
	"sync"

	"astro/internal/sched"
)

// Channel tags multiplex independent protocols over one endpoint. The tag
// is the first byte of every payload.
type Channel byte

// Channel assignments used across the repository. Keeping them in one
// place prevents collisions between layers sharing an endpoint.
const (
	ChanBRB       Channel = 1 // Byzantine reliable broadcast traffic
	ChanPayment   Channel = 2 // client submissions, confirmations, queries
	ChanCredit    Channel = 3 // Astro II CREDIT messages
	ChanConsensus Channel = 4 // PBFT-style baseline traffic
	ChanReconfig  Channel = 5 // join/leave and state transfer
	ChanLocal     Channel = 6 // self-addressed timer/batch events
)

// DefaultQueueSize is the per-channel dispatch queue capacity used when
// none is configured. Deep enough to ride out verification-latency bursts,
// shallow enough that a wedged handler exerts backpressure on the endpoint
// instead of buffering unboundedly.
const DefaultQueueSize = 1024

// Mux demultiplexes inbound messages by channel tag and prefixes outbound
// messages with their tag. A Mux owns its endpoint's handler slot.
//
// Dispatch rides the lane scheduler (internal/sched): every registered
// channel is bound to its own lane-affine flow — a bounded FIFO serialized
// onto one lane at a time. Messages of one channel are handled
// sequentially in arrival order (per-channel FIFO), but channels never
// head-of-line block each other: distinct channels bind distinct flows
// with distinct home lanes, and an idle lane steals a runnable flow whose
// home lane is busy — so a BRB handler stalled on certificate
// verification delays neither payments nor CREDITs, even on a single-core
// host. Handlers of *different* channels may therefore run concurrently;
// protocol state shared across channels must be locked.
//
// Channels that need cross-channel serialization — ChanLocal timer events
// that must interleave atomically with a protocol's message handler —
// register with SerializeWith(ch), which binds them to the target
// channel's flow (same flow key, hence the same lane and the same FIFO):
// a timer can never interleave mid-task with the channel it pokes.
//
// When a channel's flow is full, delivery for that channel blocks the
// endpoint's reader until the flow drains: bounded memory with natural
// backpressure, never silent message loss.
type Mux struct {
	ep Endpoint
	rt *sched.Runtime
	ns uint64 // flow-key namespace; distinct per mux on a shared runtime

	qsize int

	mu       sync.RWMutex
	handlers map[Channel]Handler
	flows    map[Channel]*sched.Flow
	owned    []*sched.Flow // distinct flows, for diagnostics/tests
	closed   bool

	// inflight counts dispatch tasks accepted and not yet finished, so
	// Close can wait for the in-flight handler and the queued tasks it
	// turned into no-ops.
	inflight sync.WaitGroup
}

// MuxOption configures a Mux.
type MuxOption func(*Mux)

// WithQueueSize sets the per-channel dispatch queue capacity.
func WithQueueSize(n int) MuxOption {
	return func(m *Mux) {
		if n > 0 {
			m.qsize = n
		}
	}
}

// WithRuntime selects the lane runtime dispatch runs on. The default is
// the process-wide shared runtime (sched.Default()), which every mux,
// verifier, and settlement engine of an in-process deployment shares.
func WithRuntime(rt *sched.Runtime) MuxOption {
	return func(m *Mux) {
		if rt != nil {
			m.rt = rt
		}
	}
}

// RegisterOption configures one channel registration.
type RegisterOption func(*regOpts)

type regOpts struct {
	serializeWith Channel
	set           bool
}

// SerializeWith binds the channel being registered to target's flow, so
// handlers of the two channels execute sequentially with respect to each
// other (one flow, one FIFO, one lane at a time). Protocols use this for
// ChanLocal: a timer event must not race the message handler it pokes.
// The binding is fixed at the channel's first registration.
func SerializeWith(target Channel) RegisterOption {
	return func(o *regOpts) {
		o.serializeWith = target
		o.set = true
	}
}

// NewMux wraps ep, installing itself as the endpoint handler.
func NewMux(ep Endpoint, opts ...MuxOption) *Mux {
	m := &Mux{
		ep:       ep,
		qsize:    DefaultQueueSize,
		handlers: make(map[Channel]Handler),
		flows:    make(map[Channel]*sched.Flow),
	}
	for _, o := range opts {
		o(m)
	}
	if m.rt == nil {
		m.rt = sched.Default()
	}
	m.ns = m.rt.KeySpace()
	ep.SetHandler(m.dispatch)
	return m
}

// Endpoint returns the underlying endpoint.
func (m *Mux) Endpoint() Endpoint { return m.ep }

// ID returns the underlying endpoint's address.
func (m *Mux) ID() NodeID { return m.ep.ID() }

// Runtime returns the lane runtime dispatch runs on.
func (m *Mux) Runtime() *sched.Runtime { return m.rt }

// Register installs the handler for a channel. Registering a channel twice
// replaces the previous handler; the channel's flow binding (its own, or a
// SerializeWith target's) is fixed by the first registration.
func (m *Mux) Register(ch Channel, h Handler, opts ...RegisterOption) {
	var ro regOpts
	for _, o := range opts {
		o(&ro)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[ch] = h
	if _, bound := m.flows[ch]; bound {
		return
	}
	switch {
	case ro.set:
		m.flows[ch] = m.flowForLocked(ro.serializeWith)
	default:
		m.flows[ch] = m.flowForLocked(ch)
	}
}

// flowForLocked returns (creating if needed) the flow owned by channel ch.
// Callers hold m.mu.
func (m *Mux) flowForLocked(ch Channel) *sched.Flow {
	if fl, ok := m.flows[ch]; ok {
		return fl
	}
	fl := m.rt.Flow(m.ns+uint64(ch), m.qsize)
	m.flows[ch] = fl
	m.owned = append(m.owned, fl)
	return fl
}

// DispatchGoroutines reports how many serialization domains the mux
// dispatches over — one per distinct flow, multiplexed onto the shared
// lanes (tests assert sharding and serialization).
func (m *Mux) DispatchGoroutines() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.owned)
}

// Close marks the mux closed and waits for the in-flight handler to
// return. Messages still queued on the flows are discarded (their tasks
// become no-ops); the endpoint itself is not closed (the mux does not own
// it), and the lane runtime — shared with other components — keeps
// running. Close must not be called from inside a handler. Safe to call
// more than once.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.inflight.Wait()
	// Unregister this mux's flows from the (shared, long-lived) runtime.
	// No dispatch can be mid-Submit anymore: dispatch checks closed before
	// submitting, and inflight covered everything that got past the check.
	m.mu.Lock()
	for _, fl := range m.owned {
		fl.Release()
	}
	m.mu.Unlock()
}

// Send transmits payload on the given channel.
func (m *Mux) Send(to NodeID, ch Channel, payload []byte) error {
	buf := make([]byte, 0, 1+len(payload))
	buf = append(buf, byte(ch))
	buf = append(buf, payload...)
	if err := m.ep.Send(to, buf); err != nil {
		return fmt.Errorf("mux send chan %d: %w", ch, err)
	}
	return nil
}

// SendLocal enqueues payload to this node's own dispatch on ChanLocal.
// Protocol timers use this to serialize with message handling; register
// ChanLocal with SerializeWith(ch) to bind it to the channel it must
// interleave with.
func (m *Mux) SendLocal(payload []byte) error {
	return m.Send(m.ep.ID(), ChanLocal, payload)
}

// dispatch runs on the endpoint's reader goroutine: route the message to
// its channel's flow. A full flow blocks here — backpressure on the
// endpoint — rather than dropping. Unregistered channels are discarded.
func (m *Mux) dispatch(from NodeID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	ch := Channel(payload[0])
	m.mu.RLock()
	fl := m.flows[ch]
	closed := m.closed
	if fl == nil || closed {
		m.mu.RUnlock()
		return
	}
	m.inflight.Add(1) // under the RLock, so Close cannot Wait before Add
	m.mu.RUnlock()
	body := payload[1:]
	fl.Submit(func() {
		defer m.inflight.Done()
		// Resolve the handler at execution time, so late registration and
		// handler replacement behave as before; a mux closed while the
		// task sat queued discards it here.
		m.mu.RLock()
		h := m.handlers[ch]
		closed := m.closed
		m.mu.RUnlock()
		if closed || h == nil {
			return
		}
		h(from, body)
	})
}
