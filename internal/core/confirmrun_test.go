package core

// Tests for the one confirmation wire form: a settled batch owes each own
// client one msgConfirm frame carrying a run of consecutive sequence
// numbers, and the client expands it — bounded, in order, once each.

import (
	"runtime"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// tappedClient is a Client whose payment channel is tapped: every inbound
// frame is recorded and then handed to the client as usual.
type tappedClient struct {
	*Client
	frames chan []byte
}

func (c *cluster) tappedClient(id types.ClientID) *tappedClient {
	mux := transport.NewMux(c.net.Node(transport.ClientNode(id)))
	c.t.Cleanup(mux.Close)
	tc := &tappedClient{Client: NewClient(id, c.repOf, mux), frames: make(chan []byte, 256)}
	mux.Register(transport.ChanPayment, func(from transport.NodeID, p []byte) {
		tc.frames <- append([]byte(nil), p...)
		tc.onMessage(from, p)
	})
	return tc
}

// expectConfirms reads exactly the sequence numbers first..first+n-1 off
// the client's confirmation stream, in order.
func expectConfirms(t *testing.T, cl *Client, first types.Seq, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case got := <-cl.Confirmations():
			if want := (types.PaymentID{Spender: cl.ID(), Seq: first + types.Seq(i)}); got != want {
				t.Fatalf("client %d: confirmation %d is %v, want %v", cl.ID(), i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d: confirmation %d of %d never arrived", cl.ID(), i+1, n)
		}
	}
}

func expectNoConfirm(t *testing.T, cl *Client) {
	t.Helper()
	select {
	case got := <-cl.Confirmations():
		t.Fatalf("client %d: unexpected confirmation %v", cl.ID(), got)
	case <-time.After(50 * time.Millisecond):
	}
}

// expectRunFrame reads one frame off the tap and checks it is the run.
func expectRunFrame(t *testing.T, tc *tappedClient, first types.Seq, count uint32) {
	t.Helper()
	select {
	case f := <-tc.frames:
		run, ok := decodeConfirm(f)
		if want := (confirmRun{Spender: tc.ID(), First: first, Count: count}); !ok || run != want {
			t.Fatalf("client %d: frame % x decodes to %+v (%v), want %+v", tc.ID(), f, run, ok, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("client %d: no confirmation frame", tc.ID())
	}
}

func expectNoFrame(t *testing.T, tc *tappedClient) {
	t.Helper()
	select {
	case f := <-tc.frames:
		t.Fatalf("client %d: unexpected frame % x", tc.ID(), f)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestConfirmOneFramePerClientPerBatch: a delivered batch of k payments of
// each of c own clients — interleaved with each other and with another
// representative's client — puts exactly c frames on the payment channel,
// and each client reads its k confirmations once each, in sequence order.
// A batch of 1 is a run of 1.
func TestConfirmOneFramePerClientPerBatch(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis1000)
		r := c.replicas[0]
		own := []*tappedClient{c.tappedClient(4), c.tappedClient(8), c.tappedClient(12)}
		const k = 5
		var entries []BatchEntry
		for seq := types.Seq(1); seq <= k; seq++ {
			for _, tc := range own {
				entries = append(entries, BatchEntry{Payment: pay(tc.ID(), seq, 2, 1)})
			}
			entries = append(entries, BatchEntry{Payment: pay(5, seq, 2, 1)}) // replica 1's client
		}
		r.onDeliver(1, 0, EncodeBatch(entries))

		for _, tc := range own {
			expectRunFrame(t, tc, 1, k)
			expectNoFrame(t, tc)
			expectConfirms(t, tc.Client, 1, k)
			expectNoConfirm(t, tc.Client)
		}
		if got := r.ConfirmedCount(); got != k*uint64(len(own)) {
			t.Fatalf("ConfirmedCount = %d, want %d", got, k*len(own))
		}

		// A batch of one payment: a run of 1, continuing the stream.
		r.onDeliver(1, 1, EncodeBatch([]BatchEntry{{Payment: pay(8, k+1, 2, 1)}}))
		expectRunFrame(t, own[1], k+1, 1)
		expectConfirms(t, own[1].Client, k+1, 1)
		for _, tc := range own {
			expectNoFrame(t, tc)
		}
	})
}

// TestConfirmRunsSplitAtGapsAndAtTheBufferDepth: postSettle emits one run
// per maximal consecutive stretch instead of assuming one per client, and
// never a run longer than a client's buffer.
func TestConfirmRunsSplitAtGapsAndAtTheBufferDepth(t *testing.T) {
	c := newCluster(t, AstroI, 4, genesis1000)
	r := c.replicas[0]
	tc := c.tappedClient(4)

	r.postSettle([]types.Payment{pay(4, 1, 2, 1), pay(4, 2, 2, 1), pay(4, 7, 2, 1), pay(4, 8, 2, 1), pay(4, 9, 2, 1)})
	expectRunFrame(t, tc, 1, 2)
	expectRunFrame(t, tc, 7, 3)
	expectNoFrame(t, tc)
	expectConfirms(t, tc.Client, 1, 2)
	expectConfirms(t, tc.Client, 7, 3)

	long := make([]types.Payment, maxConfirmRun+3)
	for i := range long {
		long[i] = pay(4, types.Seq(100+i), 2, 1)
	}
	r.postSettle(long)
	expectRunFrame(t, tc, 100, maxConfirmRun)
	expectRunFrame(t, tc, 100+maxConfirmRun, 3)
	expectNoFrame(t, tc)
}

// TestSettledReplayReconfirmedByRunOfOne: a byte-identical resubmission of
// a settled payment (a client retrying a lost confirmation frame) is
// answered with a run of exactly that payment.
func TestSettledReplayReconfirmedByRunOfOne(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis1000)
	tc := c.tappedClient(4)
	for i := 0; i < 3; i++ {
		c.payAndWait(tc.Client, 2, 1)
	}
	for len(tc.frames) > 0 {
		<-tc.frames
	}
	replay := pay(4, 2, 2, 1)
	if err := tc.mux.Send(transport.ReplicaNode(0), transport.ChanPayment, encodeSubmit(replay, nil)); err != nil {
		t.Fatal(err)
	}
	expectRunFrame(t, tc, 2, 1)
	expectConfirms(t, tc.Client, 2, 1)
	expectNoFrame(t, tc)
	if es := c.replicas[0].EdgeStats(); es.SettledReplay != 1 {
		t.Fatalf("edge stats = %+v, want one settled replay", es)
	}
}

// TestClientIgnoresHostileRuns: runs no representative would send are
// dropped whole, and refusing them costs nothing in proportion to count.
func TestClientIgnoresHostileRuns(t *testing.T) {
	c := newCluster(t, AstroI, 4, genesis1000)
	cl := c.client(4) // representative: replica 0
	rep, other := transport.ReplicaNode(0), transport.ReplicaNode(1)
	id := types.PaymentID{Spender: 4, Seq: 1}

	hostile := []struct {
		name  string
		from  transport.NodeID
		frame []byte
	}{
		{"other spender", rep, EncodeConfirm(types.PaymentID{Spender: 8, Seq: 1}, 1)},
		{"count 0", rep, EncodeConfirm(id, 0)},
		{"count 2^32-1", rep, EncodeConfirm(id, 1<<32-1)},
		{"count one past the buffer", rep, EncodeConfirm(id, maxConfirmRun+1)},
		{"seq 0", rep, EncodeConfirm(types.PaymentID{Spender: 4, Seq: 0}, 1)},
		{"last seq wraps", rep, EncodeConfirm(types.PaymentID{Spender: 4, Seq: 1<<64 - 1}, 2)},
		{"truncated", rep, EncodeConfirm(id, 1)[:confirmFrameSize-1]},
		{"the retired 17-byte form", rep, EncodeConfirm(id, 1)[:17]},
		{"trailing byte", rep, append(EncodeConfirm(id, 1), 0)},
		{"not the representative", other, EncodeConfirm(id, 1)},
		{"a client", transport.ClientNode(8), EncodeConfirm(id, 1)},
	}
	for _, h := range hostile {
		cl.onMessage(h.from, h.frame)
		select {
		case got := <-cl.Confirmations():
			t.Fatalf("%s: delivered %v", h.name, got)
		default:
		}
	}

	// Bounded cost: a thousand refusals of a 2^32-1 run allocate (next to)
	// nothing and return at once.
	huge := EncodeConfirm(id, 1<<32-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		cl.onMessage(rep, huge)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing 1000 huge runs allocated %d bytes", grew)
	}
	if elapsed > time.Second {
		t.Fatalf("refusing 1000 huge runs took %v", elapsed)
	}

	// The honest form still gets through, as the longest run there is.
	cl.onMessage(rep, EncodeConfirm(id, maxConfirmRun))
	expectConfirms(t, cl, 1, maxConfirmRun)
	expectNoConfirm(t, cl)
}

// TestClientDropsTheRestOfARunWhenFull: when the confirmation buffer fills
// mid-run the rest of that run is dropped too, so the stream the reader
// sees stays an in-order prefix of it — never seq 1..n, a hole, then more.
func TestClientDropsTheRestOfARunWhenFull(t *testing.T) {
	c := newCluster(t, AstroI, 4, genesis1000)
	cl := c.client(4)
	rep := transport.ReplicaNode(0)

	cl.onMessage(rep, EncodeConfirm(types.PaymentID{Spender: 4, Seq: 1}, maxConfirmRun-2))
	cl.onMessage(rep, EncodeConfirm(types.PaymentID{Spender: 4, Seq: maxConfirmRun - 1}, 10)) // room for 2 of 10
	expectConfirms(t, cl, 1, 3)                                                               // the reader frees three places
	cl.onMessage(rep, EncodeConfirm(types.PaymentID{Spender: 4, Seq: maxConfirmRun + 9}, 2))  // the next run fits
	expectConfirms(t, cl, 4, maxConfirmRun-3)                                                 // … through seq maxConfirmRun
	expectConfirms(t, cl, maxConfirmRun+9, 2)
	expectNoConfirm(t, cl)
}

// TestReflectedRunCountsMalformed: a confirmation run aimed *at* a replica
// is hostile whatever it carries.
func TestReflectedRunCountsMalformed(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis1000)
	attack := c.rawClientMux(4)
	t.Cleanup(attack.Close)
	for _, count := range []uint32{1, 70, 1<<32 - 1} {
		if err := attack.Send(transport.ReplicaNode(0), transport.ChanPayment, EncodeConfirm(types.PaymentID{Spender: 4, Seq: 1}, count)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.replicas[0].EdgeStats().Malformed != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("edge stats = %+v, want 3 malformed", c.replicas[0].EdgeStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
