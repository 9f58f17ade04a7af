package transport_test

// Tests for the sharded Mux dispatcher: per-channel FIFO under concurrent
// cross-channel load, elimination of cross-channel head-of-line blocking,
// SerializeWith pairing (validated by the race detector), bounded-queue
// backpressure without message loss, and clean Close with in-flight
// messages. Run with -race.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/transport/memnet"
)

// TestMuxShardedPerChannelFIFO hammers three channels from concurrent
// senders and asserts every channel observes its own messages in send
// order, even though channels dispatch concurrently.
func TestMuxShardedPerChannelFIFO(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	recv := transport.NewMux(net.Node(1))
	defer recv.Close()

	channels := []transport.Channel{transport.ChanBRB, transport.ChanPayment, transport.ChanCredit}
	const perChan = 2000

	type rec struct {
		mu   sync.Mutex
		seqs []uint64
	}
	got := make(map[transport.Channel]*rec)
	var done sync.WaitGroup
	done.Add(len(channels) * perChan)
	for _, ch := range channels {
		r := &rec{}
		got[ch] = r
		recv.Register(ch, func(_ transport.NodeID, p []byte) {
			r.mu.Lock()
			r.seqs = append(r.seqs, be64(p))
			r.mu.Unlock()
			done.Done()
		})
	}
	if n := recv.DispatchGoroutines(); n != len(channels) {
		t.Fatalf("DispatchGoroutines = %d, want %d (one per channel)", n, len(channels))
	}

	// One sender endpoint per channel: each endpoint's reader delivers its
	// own channel's messages in order, and the three compete for the
	// receiving mux concurrently.
	var sendWG sync.WaitGroup
	for i, ch := range channels {
		sender := transport.NewMux(net.Node(transport.NodeID(10 + i)))
		defer sender.Close()
		sendWG.Add(1)
		go func(m *transport.Mux, ch transport.Channel) {
			defer sendWG.Done()
			for s := uint64(0); s < perChan; s++ {
				var buf [8]byte
				put64(buf[:], s)
				if err := m.Send(1, ch, buf[:]); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(sender, ch)
	}
	sendWG.Wait()
	if !waitGroupTimeout(&done, 10*time.Second) {
		t.Fatal("timed out waiting for deliveries")
	}
	for _, ch := range channels {
		r := got[ch]
		r.mu.Lock()
		if len(r.seqs) != perChan {
			t.Fatalf("chan %d: got %d messages, want %d", ch, len(r.seqs), perChan)
		}
		for i, s := range r.seqs {
			if s != uint64(i) {
				t.Fatalf("chan %d: position %d holds seq %d — FIFO violated", ch, i, s)
			}
		}
		r.mu.Unlock()
	}
}

// TestMuxShardedNoHeadOfLineBlocking wedges one channel's handler and
// asserts another channel keeps delivering — the property the sharding
// exists for.
func TestMuxShardedNoHeadOfLineBlocking(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	a := transport.NewMux(net.Node(1))
	b := transport.NewMux(net.Node(2))
	defer a.Close()
	defer b.Close()

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	b.Register(transport.ChanBRB, func(transport.NodeID, []byte) {
		entered <- struct{}{}
		<-gate // simulate a handler stalled on expensive verification
	})
	pay := make(chan struct{}, 16)
	b.Register(transport.ChanPayment, func(transport.NodeID, []byte) {
		pay <- struct{}{}
	})

	if err := a.Send(2, transport.ChanBRB, []byte("stall")); err != nil {
		t.Fatal(err)
	}
	<-entered // BRB handler is now wedged
	if err := a.Send(2, transport.ChanPayment, []byte("submit")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pay:
	case <-time.After(2 * time.Second):
		t.Fatal("payment delivery blocked behind a wedged BRB handler")
	}
	close(gate)
}

// TestMuxSerializeWithLocalTimer registers ChanLocal with
// SerializeWith(ChanPayment) and mutates shared state from both handlers
// WITHOUT locking; the race detector proves the serialization guarantee,
// and the counter proves no event was lost or doubled.
func TestMuxSerializeWithLocalTimer(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	m := transport.NewMux(net.Node(1))
	defer m.Close()
	peer := transport.NewMux(net.Node(2))
	defer peer.Close()

	const each = 1000
	var counter int // deliberately unsynchronized: serialization is the lock
	var done sync.WaitGroup
	done.Add(2 * each)
	m.Register(transport.ChanPayment, func(transport.NodeID, []byte) {
		counter++
		done.Done()
	})
	m.Register(transport.ChanLocal, func(transport.NodeID, []byte) {
		counter++
		done.Done()
	}, transport.SerializeWith(transport.ChanPayment))
	if n := m.DispatchGoroutines(); n != 1 {
		t.Fatalf("DispatchGoroutines = %d, want 1 (ChanLocal shares ChanPayment's)", n)
	}

	var send sync.WaitGroup
	send.Add(2)
	go func() {
		defer send.Done()
		for i := 0; i < each; i++ {
			if err := m.SendLocal([]byte{1}); err != nil {
				t.Errorf("SendLocal: %v", err)
				return
			}
		}
	}()
	go func() {
		defer send.Done()
		for i := 0; i < each; i++ {
			if err := peer.Send(1, transport.ChanPayment, []byte{2}); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	send.Wait()
	if !waitGroupTimeout(&done, 10*time.Second) {
		t.Fatal("timed out waiting for deliveries")
	}
	if counter != 2*each {
		t.Fatalf("counter = %d, want %d (lost or raced increments)", counter, 2*each)
	}
}

// TestMuxBoundedQueueBackpressure wedges a channel with a one-slot queue,
// pours messages in, and asserts none are lost: the queue blocks the
// endpoint reader (bounded memory) and everything drains after the wedge
// lifts.
func TestMuxBoundedQueueBackpressure(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	sender := transport.NewMux(net.Node(1))
	defer sender.Close()
	recv := transport.NewMux(net.Node(2), transport.WithQueueSize(1))
	defer recv.Close()

	const n = 64
	gate := make(chan struct{})
	var delivered atomic.Uint64
	var done sync.WaitGroup
	done.Add(n)
	recv.Register(transport.ChanBRB, func(transport.NodeID, []byte) {
		<-gate
		delivered.Add(1)
		done.Done()
	})
	for i := 0; i < n; i++ {
		if err := sender.Send(2, transport.ChanBRB, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is wedged behind the first handler; nothing delivered.
	time.Sleep(50 * time.Millisecond)
	if got := delivered.Load(); got != 0 {
		t.Fatalf("delivered %d messages through a wedged one-slot queue", got)
	}
	close(gate)
	if !waitGroupTimeout(&done, 10*time.Second) {
		t.Fatalf("only %d/%d messages delivered — backpressure dropped messages", delivered.Load(), n)
	}
}

// TestMuxCloseWithInflight closes the mux while a handler is mid-message
// and the queues still hold undelivered messages: Close must wait for the
// in-flight handler, drop the rest, and leave everything race-free.
func TestMuxCloseWithInflight(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	sender := transport.NewMux(net.Node(1))
	defer sender.Close()
	recv := transport.NewMux(net.Node(2), transport.WithQueueSize(4))

	gate := make(chan struct{})
	entered := make(chan struct{}, 16) // roomy: the handler may run again for queued messages
	var inflightDone atomic.Bool
	recv.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
		entered <- struct{}{}
		<-gate
		inflightDone.Store(true)
	})
	for i := 0; i < 8; i++ {
		if err := sender.Send(2, transport.ChanBRB, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // first message is in the handler; more sit queued

	closed := make(chan struct{})
	go func() {
		recv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate) // release the handler
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight handler finished")
	}
	if !inflightDone.Load() {
		t.Fatal("Close returned before the in-flight handler completed")
	}
	// Post-close sends must not wedge or panic; the messages are dropped.
	if err := sender.Send(2, transport.ChanBRB, []byte("late")); err != nil {
		t.Fatal(err)
	}
	recv.Close() // idempotent
}

// waitGroupTimeout waits for wg with a deadline.
func waitGroupTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func be64(b []byte) uint64 {
	var v uint64
	for _, x := range b[:8] {
		v = v<<8 | uint64(x)
	}
	return v
}

func put64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
