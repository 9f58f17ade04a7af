package memnet_test

// Link faults on a memnet network: memnet models only latency, bandwidth
// and crash-stop, so extra delay and partitions come from a chaos
// controller wrapping the memnet endpoints. These tests pin that the two
// compose — a fault set on the controller shapes memnet delivery.

import (
	"sync"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/transport/chaos"
	"astro/internal/transport/memnet"
)

// inbox counts frames delivered to an endpoint.
type inbox struct {
	mu sync.Mutex
	n  int
}

func newInbox(ep transport.Endpoint) *inbox {
	in := &inbox{}
	ep.SetHandler(func(transport.NodeID, []byte) {
		in.mu.Lock()
		in.n++
		in.mu.Unlock()
	})
	return in
}

func (in *inbox) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

func (in *inbox) waitFor(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for in.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d frames delivered, want %d", in.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// arrival sends one frame and returns how long it took to be delivered.
func arrival(t *testing.T, from transport.Endpoint, to transport.NodeID, at *inbox) time.Duration {
	t.Helper()
	want := at.count() + 1
	start := time.Now()
	if err := from.Send(to, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	at.waitFor(t, want)
	return time.Since(start)
}

func fixedDelay(d time.Duration) chaos.Rule { return chaos.Rule{DelayMin: d, DelayMax: d} }

func TestNodeDelayInjection(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ctl := chaos.NewController(1)
	a := ctl.Wrap(net.Node(1))
	b := net.Node(2)
	newInbox(a)
	cb := newInbox(b)

	ctl.SetNodeRule(1, fixedDelay(80*time.Millisecond))
	if e := arrival(t, a, 2, cb); e < 70*time.Millisecond {
		t.Errorf("delay injection not applied: %v", e)
	}
	ctl.SetNodeRule(1, chaos.Rule{})
	if e := arrival(t, a, 2, cb); e > 50*time.Millisecond {
		t.Errorf("delay not removed: %v", e)
	}
}

func TestLinkDelayAsymmetric(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ctl := chaos.NewController(2)
	a, b := ctl.Wrap(net.Node(1)), ctl.Wrap(net.Node(2))
	ca, cb := newInbox(a), newInbox(b)

	ctl.SetLinkRule(1, 2, fixedDelay(30*time.Millisecond))
	if e := arrival(t, a, 2, cb); e < 25*time.Millisecond {
		t.Fatalf("1→2 arrived after %v, want >= ~30ms link delay", e)
	}
	if e := arrival(t, b, 1, ca); e > 20*time.Millisecond {
		t.Fatalf("2→1 took %v; reverse direction must not inherit the delay", e)
	}
	ctl.SetLinkRule(1, 2, chaos.Rule{}) // removal restores the fast path
	if e := arrival(t, a, 2, cb); e > 20*time.Millisecond {
		t.Fatalf("1→2 still slow (%v) after delay removal", e)
	}
}

func TestPartitionGroups(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ctl := chaos.NewController(3)
	a := ctl.Wrap(net.Node(1))
	newInbox(a)
	cb := newInbox(net.Node(2))
	cc := newInbox(net.Node(3))

	ctl.Partition([]transport.NodeID{1}, []transport.NodeID{2})
	if err := a.Send(2, []byte("blocked")); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Node 3 is unlisted: it must still reach both sides.
	if err := a.Send(3, []byte("open")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cc.waitFor(t, 1)
	time.Sleep(10 * time.Millisecond)
	if got := cb.count(); got != 0 {
		t.Fatalf("partition leaked %d messages to node 2", got)
	}

	ctl.Heal()
	if err := a.Send(2, []byte("after-heal")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.waitFor(t, 1)
}
