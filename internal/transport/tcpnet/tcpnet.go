// Package tcpnet implements transport.Endpoint over real TCP connections
// for multi-process deployments of Astro (cmd/astro-node and
// cmd/astro-client). Frames are length-prefixed; each frame carries the
// sender's NodeID so a single inbound connection can relay for any peer.
//
// Outbound connections are established lazily and re-dialed with backoff on
// failure; every Send is one synchronous, deadline-bounded write of one
// frame, and its error is the caller's. Inbound, each connection has one
// read loop that parses frames out of a buffered reader — a burst of small
// frames costs one read(2), not two per frame — and checks every frame
// against maxFrame before allocating for it. A peer without a configured
// address (a client that dialed in) is answered over the connection it
// last dialed: the read loop records that route on the first frame it sees
// from a sender id, not on every frame.
//
// Like memnet, inbound messages are delivered from a single dispatch
// goroutine per endpoint, fed by the read loops through a bounded inbox (a
// full inbox blocks the readers, and TCP pushes back on the senders);
// protocols layered through transport.Mux then fan out to one flow per
// channel (see the Mux concurrency contract). Only the read loops feed
// the inbox: Send to self returns transport.ErrSelfSend.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("tcpnet: endpoint closed")

// ErrUnknownPeer is returned when sending to a NodeID with no configured
// address.
var ErrUnknownPeer = errors.New("tcpnet: unknown peer")

// maxFrame bounds inbound frame size (16 MiB, matching wire.MaxChunk).
const maxFrame = 16 << 20

// Config describes one endpoint of a TCP deployment.
type Config struct {
	// Self is this node's identity.
	Self transport.NodeID
	// Listen is the local address to accept connections on, e.g.
	// ":7001". Empty means the endpoint is client-only (dial out, receive
	// replies over its outbound connections).
	Listen string
	// Peers maps node identities to dialable addresses.
	Peers map[transport.NodeID]string
	// DialTimeout bounds each connection attempt. Zero means 3s.
	DialTimeout time.Duration
	// RedialBackoff is the base pause before re-dialing a failed peer.
	// The actual pause is jittered uniformly in [0.5, 1.5) × this value,
	// so the senders cut off by a partition don't redial the healed peer
	// in one synchronized thundering herd. Zero means 250ms.
	RedialBackoff time.Duration
	// WriteTimeout bounds each frame write, so a peer that stops reading
	// (dead process behind a live TCP window, full kernel buffers) fails
	// the sender instead of blocking it forever. Zero means 10s.
	WriteTimeout time.Duration
}

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	cfg      Config
	listener net.Listener

	handler atomic.Pointer[transport.Handler]
	inbox   chan inMsg
	// handlerSet wakes the dispatch goroutine when SetHandler installs a
	// handler, so frames parked during the New -> SetHandler window are
	// delivered promptly even if nothing else arrives.
	handlerSet chan struct{}
	done       chan struct{}
	closed     atomic.Bool

	// jitter seeds the redial-backoff spread; parkDrops counts frames shed
	// by the pre-handler parking bounds (observable in tests and ops).
	jitter    atomic.Uint64
	parkDrops atomic.Uint64
	// routeGen counts closed connections; see readLoop and learnRoute.
	routeGen atomic.Uint64

	mu    sync.Mutex
	conns map[transport.NodeID]*peerConn
	open  map[net.Conn]struct{} // every live conn, for Close

	wg sync.WaitGroup
}

var _ transport.Endpoint = (*Endpoint)(nil)

type inMsg struct {
	from    transport.NodeID
	payload []byte
}

// peerConn is the per-peer outbound state. mu serializes frame writes and
// guards the fields; it is NEVER held across a dial, a backoff sleep, or a
// (deadline-bounded) write's retry path — one sender stuck establishing a
// connection must not wedge every other goroutine sending to the peer.
// Dialing is single-flight: the first sender that finds the conn down
// dials while the others wait on dialDone, outside the lock.
type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	dialing  bool
	dialDone chan struct{}
	dialErr  error
}

// New creates an endpoint and, if cfg.Listen is non-empty, starts
// accepting connections.
func New(cfg Config) (*Endpoint, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 250 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	e := &Endpoint{
		cfg:        cfg,
		inbox:      make(chan inMsg, 1<<12),
		handlerSet: make(chan struct{}, 1),
		done:       make(chan struct{}),
		conns:      make(map[transport.NodeID]*peerConn),
		open:       make(map[net.Conn]struct{}),
	}
	e.jitter.Store(uint64(time.Now().UnixNano()) ^ uint64(cfg.Self)<<32)
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcpnet listen %s: %w", cfg.Listen, err)
		}
		e.listener = ln
		e.wg.Add(1)
		go e.acceptLoop()
	}
	e.wg.Add(1)
	go e.dispatch()
	return e, nil
}

// Addr returns the bound listen address (useful with ":0").
func (e *Endpoint) Addr() net.Addr {
	if e.listener == nil {
		return nil
	}
	return e.listener.Addr()
}

// ID implements transport.Endpoint.
func (e *Endpoint) ID() transport.NodeID { return e.cfg.Self }

// SetHandler implements transport.Endpoint. Frames that arrived before the
// handler was installed are parked by the dispatch goroutine and delivered
// — in arrival order, ahead of newer traffic — once it is.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.handler.Store(&h)
	select {
	case e.handlerSet <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.done)
	if e.listener != nil {
		_ = e.listener.Close()
	}
	e.mu.Lock()
	for c := range e.open {
		_ = c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}

// track registers a live connection for Close; it returns false when the
// endpoint is already closed (the caller must close the conn itself).
func (e *Endpoint) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return false
	}
	e.open[c] = struct{}{}
	return true
}

func (e *Endpoint) untrack(c net.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.open, c)
}

// Bounds on the frames buffered while no handler is installed (the
// New -> SetHandler startup window). Beyond them, newest frames are
// dropped — the pre-PR4 behavior, now reachable only if a handler is never
// set. The per-peer and byte caps keep one hostile (or merely chatty) peer
// from consuming the whole parking lot before the handler lands: without
// them, a client blasting frames at a booting replica could evict every
// honest peer's startup traffic and pin maxParked × maxFrame bytes.
const (
	maxParked        = 1 << 14 // total parked frames
	maxParkedPerPeer = 1 << 10 // parked frames from any single peer
	maxParkedBytes   = 8 << 20 // total parked payload bytes
)

// ParkDrops returns the number of pre-handler frames shed by the parking
// bounds since the endpoint started.
func (e *Endpoint) ParkDrops() uint64 { return e.parkDrops.Load() }

func (e *Endpoint) dispatch() {
	defer e.wg.Done()
	var parked []inMsg
	var parkedBytes int
	perPeer := make(map[transport.NodeID]int)
	for {
		var m inMsg
		var have bool
		select {
		case <-e.done:
			return
		case <-e.handlerSet:
		case m = <-e.inbox:
			have = true
		}
		h := e.handler.Load()
		if h == nil {
			// Startup race (frames arriving between New and SetHandler):
			// park instead of dropping; the handlerSet wake-up flushes.
			if !have {
				continue
			}
			if len(parked) >= maxParked ||
				parkedBytes+len(m.payload) > maxParkedBytes ||
				perPeer[m.from] >= maxParkedPerPeer {
				e.parkDrops.Add(1)
				continue
			}
			parked = append(parked, m)
			parkedBytes += len(m.payload)
			perPeer[m.from]++
			continue
		}
		for _, p := range parked {
			(*h)(p.from, p.payload)
		}
		if len(parked) > 0 {
			parked, parkedBytes = nil, 0
			perPeer = make(map[transport.NodeID]int)
		}
		if have {
			(*h)(m.from, m.payload)
		}
	}
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !e.track(conn) {
			_ = conn.Close()
			return
		}
		e.wg.Add(1)
		go e.readLoop(conn, true)
	}
}

// frame layout: [4B big-endian total length][4B from][payload]
// ownConn: whether this loop owns the connection lifecycle (inbound
// accepted conns) or shares it with Send (outbound dialed conns).
func (e *Endpoint) readLoop(conn net.Conn, ownConn bool) {
	defer e.wg.Done()
	defer e.untrack(conn)
	defer e.evictRoutes(conn)
	if ownConn {
		defer conn.Close()
	}
	br := bufio.NewReader(conn)
	var (
		learned  bool
		lastFrom transport.NodeID
		lastGen  uint64
		hdr      [8]byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		total := binary.BigEndian.Uint32(hdr[0:4])
		if total < 4 || total > maxFrame {
			return
		}
		from := transport.NodeID(binary.BigEndian.Uint32(hdr[4:8]))
		payload := make([]byte, total-4)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		// Learn a return route: replies to a peer with no configured
		// address (e.g. a client that dialed in) reuse its connection. The
		// first frame from a sender id takes the route, later ones leave
		// it alone; once some connection has closed (routeGen moved) the
		// route may have gone with it, so offer this one for an empty route.
		gen := e.routeGen.Load()
		if take := !learned || from != lastFrom; take || gen != lastGen {
			e.learnRoute(from, conn, take)
		}
		learned, lastFrom, lastGen = true, from, gen
		select {
		case e.inbox <- inMsg{from: from, payload: payload}:
		case <-e.done:
			return
		}
	}
}

// Send implements transport.Endpoint. Sending to self returns
// transport.ErrSelfSend.
func (e *Endpoint) Send(to transport.NodeID, payload []byte) error {
	if to == e.cfg.Self {
		return transport.ErrSelfSend
	}
	if e.closed.Load() {
		return ErrClosed
	}

	pc := e.peer(to)
	if pc == nil {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, to)
	}

	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(4+len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], uint32(e.cfg.Self))
	copy(frame[8:], payload)

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			// Backoff before the redial — outside every lock, so other
			// senders to this peer (and Close) are never wedged behind it.
			select {
			case <-time.After(e.redialPause()):
			case <-e.done:
				return ErrClosed
			}
		}
		// A connection replaced between attach and the locked write (a
		// concurrent sender redialed, or a learned route reconnected) is
		// not a failure — a live conn exists — so re-attach immediately
		// without spending the attempt or the backoff; the bound only
		// stops a pathological churn loop.
		for replaced := 0; replaced < 4; replaced++ {
			conn, err := e.attach(pc, to)
			if err != nil {
				lastErr = err
				break
			}
			pc.mu.Lock()
			if pc.conn != conn {
				pc.mu.Unlock()
				lastErr = fmt.Errorf("tcpnet send to %d: connection churn", to)
				continue
			}
			// The deadline bounds how long a stalled peer (live TCP
			// window, dead reader) can hold pc.mu through this write.
			_ = conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
			_, werr := conn.Write(frame)
			if werr == nil {
				pc.mu.Unlock()
				return nil
			}
			pc.conn = nil
			pc.mu.Unlock()
			_ = conn.Close()
			lastErr = werr
			break
		}
	}
	return fmt.Errorf("tcpnet send to %d: %w", to, lastErr)
}

// redialPause draws the jittered backoff before a redial: uniform in
// [0.5, 1.5) × RedialBackoff from a per-endpoint splitmix64 stream. When a
// partition heals or a peer restarts, every blocked sender wants to redial
// at once; the spread staggers them instead of a synchronized herd (the
// same reason the sim transport jitters its latency draws).
func (e *Endpoint) redialPause() time.Duration {
	return time.Duration((0.5 + types.Uniform(&e.jitter)) * float64(e.cfg.RedialBackoff))
}

// attach returns a live connection to the peer, dialing if necessary. The
// dial runs outside pc.mu and is single-flight: concurrent senders that
// find the connection down wait for the one in-flight dial instead of
// stacking up behind a lock (the pre-PR4 bug: pc.mu was held across
// net.DialTimeout and the backoff sleep, wedging every sender to the peer
// — including Mux dispatch goroutines — behind one failed dial).
func (e *Endpoint) attach(pc *peerConn, to transport.NodeID) (net.Conn, error) {
	for {
		pc.mu.Lock()
		if pc.conn != nil {
			conn := pc.conn
			pc.mu.Unlock()
			return conn, nil
		}
		if e.closed.Load() {
			pc.mu.Unlock()
			return nil, ErrClosed
		}
		if !pc.dialing {
			addr, known := e.cfg.Peers[to]
			if !known {
				// A learned route (inbound-only peer) whose connection
				// died: nothing to dial until the peer reconnects.
				pc.mu.Unlock()
				return nil, fmt.Errorf("%w: %d (learned route lost)", ErrUnknownPeer, to)
			}
			pc.dialing = true
			done := make(chan struct{})
			pc.dialDone = done
			pc.mu.Unlock()

			conn, err := net.DialTimeout("tcp", addr, e.cfg.DialTimeout)
			if err != nil {
				err = fmt.Errorf("tcpnet dial %d@%s: %w", to, addr, err)
			} else if !e.track(conn) {
				_ = conn.Close()
				conn, err = nil, ErrClosed
			}

			pc.mu.Lock()
			pc.dialing = false
			pc.dialDone = nil
			pc.dialErr = err
			if err == nil {
				pc.conn = conn
				e.wg.Add(1)
				go e.readLoop(conn, false) // replies may arrive on this conn
			}
			pc.mu.Unlock()
			close(done)
			if err != nil {
				return nil, err
			}
			return conn, nil
		}
		// Another sender is dialing: wait for its verdict off the lock.
		done := pc.dialDone
		pc.mu.Unlock()
		select {
		case <-done:
		case <-e.done:
			return nil, ErrClosed
		}
		pc.mu.Lock()
		if pc.conn == nil && pc.dialErr != nil {
			err := pc.dialErr
			pc.mu.Unlock()
			return nil, err
		}
		pc.mu.Unlock()
		// Either the dial succeeded (fast path on re-entry) or the state
		// already moved on (connection written to and torn down); retry.
	}
}

func (e *Endpoint) peer(to transport.NodeID) *peerConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pc, ok := e.conns[to]; ok {
		return pc
	}
	if _, known := e.cfg.Peers[to]; !known {
		return nil
	}
	pc := &peerConn{}
	e.conns[to] = pc
	return pc
}

// learnRoute records an inbound connection as the way to reach a peer
// without a configured address. A read loop takes the route on the first
// frame it sees from the peer, so the most recent connection wins: a peer
// that reconnects (e.g. a client process restarting) supersedes its
// predecessor, and later frames on the older connection, should it still
// be alive, do not take the route back. Without take, only an empty route
// is filled: if the newer connection dies first, the older one's next frame
// restores it.
func (e *Endpoint) learnRoute(from transport.NodeID, conn net.Conn, take bool) {
	if _, configured := e.cfg.Peers[from]; configured {
		return
	}
	e.mu.Lock()
	pc, ok := e.conns[from]
	if !ok {
		pc = &peerConn{}
		e.conns[from] = pc
	}
	e.mu.Unlock()
	pc.mu.Lock()
	if take || pc.conn == nil {
		pc.conn = conn
	}
	pc.mu.Unlock()
}

// evictRoutes clears learned routes that point at a now-closed connection,
// then moves routeGen so the surviving read loops re-offer theirs.
func (e *Endpoint) evictRoutes(conn net.Conn) {
	defer e.routeGen.Add(1)
	e.mu.Lock()
	var pcs []*peerConn
	for id, pc := range e.conns {
		if _, configured := e.cfg.Peers[id]; !configured {
			pcs = append(pcs, pc)
		}
	}
	e.mu.Unlock()
	for _, pc := range pcs {
		pc.mu.Lock()
		if pc.conn == conn {
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
}
