package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
)

// Client is a lightweight Astro participant (paper §III, Listing 1). It
// orders its own payments by assigning sequence numbers and submits them to
// its representative replica, which brokers them into the replication
// layer. The client receives settlement confirmations and can query its
// balance.
type Client struct {
	id   types.ClientID
	rep  types.ReplicaID
	mux  *transport.Mux
	keys *crypto.KeyPair // nil unless end-to-end signatures are enabled

	mu      sync.Mutex
	nextSeq types.Seq

	confirms chan types.PaymentID
	balances chan types.Amount
	seqs     chan types.Seq
	stats    chan EdgeStats

	// retrySeed drives PayReliable's backoff jitter (reliable.go).
	retrySeed atomic.Uint64
}

// ErrTimeout is returned when a client-side wait expires.
var ErrTimeout = errors.New("core: client timed out")

// NewClient creates a client bound to its representative. The mux must be
// an endpoint on the client's own node (transport.ClientNode(id)).
func NewClient(id types.ClientID, repOf func(types.ClientID) types.ReplicaID, mux *transport.Mux) *Client {
	c := &Client{
		id:       id,
		rep:      repOf(id),
		mux:      mux,
		nextSeq:  1,
		confirms: make(chan types.PaymentID, maxConfirmRun),
		balances: make(chan types.Amount, 8),
		seqs:     make(chan types.Seq, 8),
		stats:    make(chan EdgeStats, 8),
	}
	c.retrySeed.Store(uint64(time.Now().UnixNano()) ^ uint64(id)<<32)
	mux.Register(transport.ChanPayment, c.onMessage)
	return c
}

// NewAuthClient creates a client that signs every payment with its key —
// for deployments with end-to-end client signatures (core.Config
// ClientKeys). The key's public half must be registered with the
// replicas' ClientKeys registry.
func NewAuthClient(id types.ClientID, repOf func(types.ClientID) types.ReplicaID, mux *transport.Mux, keys *crypto.KeyPair) *Client {
	c := NewClient(id, repOf, mux)
	c.keys = keys
	return c
}

// ID returns the client's identity.
func (c *Client) ID() types.ClientID { return c.id }

// Representative returns the replica brokering this client's payments.
func (c *Client) Representative() types.ReplicaID { return c.rep }

// Pay submits a payment of amount x to beneficiary b (paper Listing 1):
// assign the next sequence number, increment it, and send the payment to
// the representative over the authenticated channel. It returns the
// payment's identifier; settlement is confirmed asynchronously through
// Confirmations.
func (c *Client) Pay(b types.ClientID, x types.Amount) (types.PaymentID, error) {
	c.mu.Lock()
	p := types.Payment{Spender: c.id, Seq: c.nextSeq, Beneficiary: b, Amount: x}
	c.nextSeq++
	c.mu.Unlock()
	var sig []byte
	if c.keys != nil {
		var err error
		sig, err = c.keys.Sign(PaymentDigest(p))
		if err != nil {
			return types.PaymentID{}, fmt.Errorf("sign payment: %w", err)
		}
	}
	if err := c.mux.Send(transport.ReplicaNode(c.rep), transport.ChanPayment, encodeSubmit(p, sig)); err != nil {
		return types.PaymentID{}, err
	}
	return p.ID(), nil
}

// Confirmations returns the stream of settled payment identifiers, in
// settlement order.
func (c *Client) Confirmations() <-chan types.PaymentID { return c.confirms }

// WaitConfirm blocks until the given payment is confirmed or the timeout
// expires. Confirmations arrive in sequence order, so waiting for id also
// drains all earlier confirmations.
func (c *Client) WaitConfirm(id types.PaymentID, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case got := <-c.confirms:
			if got == id {
				return nil
			}
			if got.Seq > id.Seq {
				// Confirmation order is per-xlog sequence order; seeing a
				// later seq means ours was confirmed earlier and already
				// consumed by another waiter — treat as confirmed.
				return nil
			}
		case <-deadline.C:
			return ErrTimeout
		}
	}
}

// QueryBalance asks the representative for this client's spendable
// balance (paper §III "Checking the Balance").
func (c *Client) QueryBalance(timeout time.Duration) (types.Amount, error) {
	if err := c.mux.Send(transport.ReplicaNode(c.rep), transport.ChanPayment, encodeBalanceReq(c.id)); err != nil {
		return 0, err
	}
	select {
	case bal := <-c.balances:
		return bal, nil
	case <-time.After(timeout):
		return 0, ErrTimeout
	}
}

// SyncSeq asks the representative for this client's next usable sequence
// number and adopts it. A client process is otherwise stateless across
// restarts: restarting from seq 1 would resubmit identifiers that already
// settled, and those payments silently never settle again. Call once at
// startup before the first Pay. It never moves the counter backwards, so
// calling it on a live client is harmless.
func (c *Client) SyncSeq(timeout time.Duration) (types.Seq, error) {
	// Discard responses queued by earlier timed-out calls, so the answer
	// consumed below is to *this* request, not a stale (lower) snapshot.
	for {
		select {
		case <-c.seqs:
			continue
		default:
		}
		break
	}
	if err := c.mux.Send(transport.ReplicaNode(c.rep), transport.ChanPayment, encodeSeqReq(c.id)); err != nil {
		return 0, err
	}
	select {
	case next := <-c.seqs:
		c.mu.Lock()
		if next > c.nextSeq {
			c.nextSeq = next
		}
		next = c.nextSeq
		c.mu.Unlock()
		return next, nil
	case <-time.After(timeout):
		return 0, ErrTimeout
	}
}

func (c *Client) onMessage(from transport.NodeID, payload []byte) {
	if len(payload) == 0 || from != transport.ReplicaNode(c.rep) {
		return
	}
	switch payload[0] {
	case msgConfirm:
		// One frame per settled batch: a run of this client's consecutive
		// sequence numbers. No representative sends a run longer than the
		// buffer, so a longer one is hostile and costs nothing to refuse.
		run, ok := decodeConfirm(payload)
		if !ok || run.Spender != c.id || run.Count > maxConfirmRun {
			return
		}
		for i := types.Seq(0); i < types.Seq(run.Count); i++ {
			select {
			case c.confirms <- types.PaymentID{Spender: c.id, Seq: run.First + i}:
			default:
				// Buffer full: drop the rest of the run too, so what the
				// reader sees of it stays an in-order prefix.
				return
			}
		}
	case msgBalanceResp:
		if len(payload) != 17 {
			return
		}
		if types.ClientID(be64(payload[1:9])) != c.id {
			return
		}
		select {
		case c.balances <- types.Amount(be64(payload[9:17])):
		default:
		}
	case msgSeqResp:
		if len(payload) != 17 {
			return
		}
		if types.ClientID(be64(payload[1:9])) != c.id {
			return
		}
		select {
		case c.seqs <- types.Seq(be64(payload[9:17])):
		default:
		}
	case msgStatsResp:
		s, ok := decodeStatsResp(payload[1:])
		if !ok {
			return
		}
		select {
		case c.stats <- s:
		default:
		}
	}
}

// QueryStats fetches the representative's edge-rejection counters — the
// observable form of "the replica is absorbing an attack".
func (c *Client) QueryStats(timeout time.Duration) (EdgeStats, error) {
	if err := c.mux.Send(transport.ReplicaNode(c.rep), transport.ChanPayment, encodeStatsReq()); err != nil {
		return EdgeStats{}, err
	}
	select {
	case s := <-c.stats:
		return s, nil
	case <-time.After(timeout):
		return EdgeStats{}, ErrTimeout
	}
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
