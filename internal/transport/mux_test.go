package transport_test

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/transport/memnet"
)

func TestMuxRoutesByChannel(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	a := transport.NewMux(net.Node(1))
	b := transport.NewMux(net.Node(2))

	got := make(chan string, 4)
	b.Register(transport.ChanBRB, func(from transport.NodeID, p []byte) {
		got <- "brb:" + string(p)
	})
	b.Register(transport.ChanPayment, func(from transport.NodeID, p []byte) {
		got <- "pay:" + string(p)
	})

	if err := a.Send(2, transport.ChanBRB, []byte("echo")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, transport.ChanPayment, []byte("submit")); err != nil {
		t.Fatal(err)
	}
	// Unregistered channel: silently ignored.
	if err := a.Send(2, transport.ChanConsensus, []byte("drop")); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{"brb:echo": true, "pay:submit": true}
	for i := 0; i < 2; i++ {
		select {
		case m := <-got:
			if !want[m] {
				t.Errorf("unexpected message %q", m)
			}
			delete(want, m)
		case <-time.After(time.Second):
			t.Fatal("timeout")
		}
	}
	select {
	case m := <-got:
		t.Errorf("extra message %q", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestMuxAfter: an After callback runs once its delay has elapsed, on the
// channel's flow — it waits for the handler running there.
func TestMuxAfter(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	a := transport.NewMux(net.Node(1))
	defer a.Close()
	peer := transport.NewMux(net.Node(2))
	defer peer.Close()

	gate := make(chan struct{})
	entered := make(chan struct{})
	a.Register(transport.ChanPayment, func(transport.NodeID, []byte) {
		close(entered)
		<-gate
	})
	if err := peer.Send(1, transport.ChanPayment, []byte("wedge")); err != nil {
		t.Fatal(err)
	}
	<-entered

	const d = 30 * time.Millisecond
	fired := make(chan time.Duration, 1)
	start := time.Now()
	a.After(d, transport.ChanPayment, func() { fired <- time.Since(start) })
	select {
	case <-fired:
		t.Fatal("After ran while the channel's handler held its flow")
	case <-time.After(3 * d):
	}
	close(gate)
	select {
	case took := <-fired:
		if took < d {
			t.Errorf("After ran after %v, want >= %v", took, d)
		}
	case <-time.After(time.Second):
		t.Fatal("After never ran")
	}
}

func TestMuxEmptyPayloadIgnored(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	a := net.Node(1)
	mb := transport.NewMux(net.Node(2))
	called := make(chan struct{}, 1)
	mb.Register(transport.ChanBRB, func(transport.NodeID, []byte) { called <- struct{}{} })
	// Raw empty payload bypasses Mux.Send framing.
	if err := a.Send(2, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-called:
		t.Error("empty payload reached a handler")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestNodeIDMapping(t *testing.T) {
	if transport.ReplicaNode(7) != 7 {
		t.Error("ReplicaNode")
	}
	if transport.ClientNode(3) != transport.ClientNodeBase+3 {
		t.Error("ClientNode")
	}
	if transport.ClientNode(0) <= transport.ReplicaNode(1<<19) {
		t.Error("client and replica address spaces overlap")
	}
}
