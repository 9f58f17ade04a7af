package transport

import (
	"fmt"
	"sync"
	"time"

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
	// Tag 6 carried self-addressed timer events and is retired; a frame
	// that carries it is discarded as unregistered.
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
// A protocol's timers never cross the endpoint: After runs a callback on
// the flow of the channel it pokes, so the callback is serialized with
// that channel's handlers exactly as one more message would be.
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

// Register installs the handler for a channel, binding the channel to a
// flow of its own on first registration. Registering a channel twice
// replaces the previous handler.
func (m *Mux) Register(ch Channel, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[ch] = h
	if _, bound := m.flows[ch]; !bound {
		m.flows[ch] = m.rt.Flow(m.ns+uint64(ch), m.qsize)
	}
}

// DispatchGoroutines reports how many serialization domains the mux
// dispatches over — one flow per registered channel, multiplexed onto the
// shared lanes (tests assert sharding and serialization).
func (m *Mux) DispatchGoroutines() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.flows)
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
	// Nothing can be mid-Submit anymore: submit checks closed first, and
	// inflight covered everything that got past the check.
	m.mu.Lock()
	for _, fl := range m.flows {
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

// After runs fn on ch's flow once d has elapsed: serialized with ch's
// handlers, as if it were one more message of ch. It is how protocols
// arm timers. fn is dropped if ch is not registered when the timer fires
// or the mux is closed before fn runs.
func (m *Mux) After(d time.Duration, ch Channel, fn func()) {
	time.AfterFunc(d, func() {
		m.submit(ch, func() {
			m.mu.RLock()
			closed := m.closed
			m.mu.RUnlock()
			if !closed {
				fn()
			}
		})
	})
}

// dispatch runs on the endpoint's reader goroutine: route the message to
// its channel's flow. Unregistered channels are discarded.
func (m *Mux) dispatch(from NodeID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	ch := Channel(payload[0])
	body := payload[1:]
	m.submit(ch, func() {
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

// submit queues task on ch's flow, counted in inflight, unless ch has no
// flow or the mux is closed. Its callers — the endpoint's reader and
// After's timer goroutines — are never lanes, so a full flow blocks them
// (backpressure, never loss) and, when no lane is draining it, they drain
// it themselves (sched.Flow.SubmitOrDrain): lanes blocked sending to this
// endpoint cannot wedge it.
func (m *Mux) submit(ch Channel, task func()) {
	m.mu.RLock()
	fl := m.flows[ch]
	if fl == nil || m.closed {
		m.mu.RUnlock()
		return
	}
	m.inflight.Add(1) // under the RLock, so Close cannot Wait before Add
	m.mu.RUnlock()
	fl.SubmitOrDrain(func() {
		defer m.inflight.Done()
		task()
	})
}
