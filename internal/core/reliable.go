package core

// The hardened client submission loop: PayReliable keeps a payment alive
// across lost frames, representative restarts, partitions, and chaos-level
// packet loss, without ever creating the double-spend a naive retry would.
//
// The key property is idempotent resubmission: the sequence number is
// assigned (and the payment signed) exactly once, and every retry resends
// the byte-identical submit frame. The representative's preScreenSubmit
// then collapses retries into at most one broadcast slot:
//
//   - still in flight  -> endorsement memory hit, frame dropped, the
//     original settlement will confirm;
//   - already settled  -> a fresh confirmation is re-sent (the retry
//     answers the lost-confirmation case directly);
//   - never arrived    -> accepted as if it were the first copy.
//
// Calling Pay again on timeout instead would assign a *new* sequence
// number and strand the old one as a permanent xlog gap.

import (
	"errors"
	"fmt"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// ErrGaveUp is returned when PayReliable exhausts its attempts. The
// payment may still settle later — the identifier remains valid and a
// later PayReliable retry of the same payment is safe.
var ErrGaveUp = errors.New("core: payment unconfirmed after all retries")

// RetryPolicy configures PayReliable. The zero value selects defaults
// suitable for a LAN deployment under moderate chaos.
type RetryPolicy struct {
	Attempts int           // submit attempts before giving up; 0 means 8
	Timeout  time.Duration // per-attempt confirmation wait; 0 means 2s
	Backoff  time.Duration // base retry pause, doubled each attempt up to maxBackoff; 0 means 100ms
}

// maxBackoff caps PayReliable's doubling retry pause.
const maxBackoff = 2 * time.Second

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 8
	}
	if p.Timeout <= 0 {
		p.Timeout = 2 * time.Second
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	return p
}

// jitterPause draws a uniformly jittered pause in [0.5, 1.5) × d from the
// client's splitmix64 stream, so a fleet of clients cut off by the same
// fault doesn't retry in lockstep.
func (c *Client) jitterPause(d time.Duration) time.Duration {
	return time.Duration((0.5 + types.Uniform(&c.retrySeed)) * float64(d))
}

// PayReliable submits a payment and retries the identical frame with
// jittered exponential backoff until it is confirmed or the policy is
// exhausted. Like Pay/WaitConfirm, it is meant to be driven from one
// goroutine per client. The returned PaymentID is valid even on error
// (the payment may settle after the caller gave up).
func (c *Client) PayReliable(b types.ClientID, x types.Amount, pol RetryPolicy) (types.PaymentID, error) {
	pol = pol.withDefaults()

	// Assign the sequence number and sign exactly once; retries must be
	// byte-identical to be idempotent at the representative.
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
	frame := encodeSubmit(p, sig)

	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.jitterPause(backoff))
			backoff = min(2*backoff, maxBackoff)
			// Re-establish the connection and the sequence view in one
			// round trip. Harmless for this payment — SyncSeq never moves
			// the counter backwards and p is already assigned — but it
			// surfaces a restarted representative before the resend, and
			// primes tcpnet's redial.
			_, _ = c.SyncSeq(pol.Timeout)
		}
		if err := c.mux.Send(transport.ReplicaNode(c.rep), transport.ChanPayment, frame); err != nil {
			lastErr = err
			continue // transport down: back off and redial
		}
		if err := c.WaitConfirm(p.ID(), pol.Timeout); err == nil {
			return p.ID(), nil
		} else {
			lastErr = err
		}
	}
	return p.ID(), fmt.Errorf("%w (attempts=%d, last error: %v)", ErrGaveUp, pol.Attempts, lastErr)
}
