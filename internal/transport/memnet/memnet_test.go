package memnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// collector gathers messages delivered to an endpoint.
type collector struct {
	mu   sync.Mutex
	msgs []string
	from []transport.NodeID
	ch   chan struct{}
}

func newCollector(ep transport.Endpoint) *collector {
	c := &collector{ch: make(chan struct{}, 1024)}
	ep.SetHandler(func(from transport.NodeID, payload []byte) {
		c.mu.Lock()
		c.msgs = append(c.msgs, string(payload))
		c.from = append(c.from, from)
		c.mu.Unlock()
		c.ch <- struct{}{}
	})
	return c
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestDeliveryBasic(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	newCollector(a)

	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatalf("send: %v", err)
	}
	cb.wait(t, 1, time.Second)
	got := cb.snapshot()
	if len(got) != 1 || got[0] != "hi" {
		t.Fatalf("delivered = %v", got)
	}
}

// TestSelfSend: a send to self is refused with transport.ErrSelfSend and
// delivers nothing — not even behind a full inbox and a wedged dispatch,
// where a self-send used to be the one frame that could still get in.
func TestSelfSend(t *testing.T) {
	net := New()
	defer net.Close()
	a, b := net.Node(1), net.Node(2)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	got := make(chan string, inboxSize+2)
	a.SetHandler(func(_ transport.NodeID, p []byte) {
		select {
		case entered <- struct{}{}:
			<-gate // the first frame from node 2 wedges dispatch
		default:
		}
		got <- string(p)
	})
	if err := b.Send(1, []byte("wedge")); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < inboxSize; i++ { // fill the inbox behind the wedge
		if err := b.Send(1, []byte("fill")); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(1, []byte("self")); !errors.Is(err, transport.ErrSelfSend) {
		t.Fatalf("Send(self) = %v, want %v", err, transport.ErrSelfSend)
	}
	if st := net.Stats(); st.MessagesSent != inboxSize+1 {
		t.Errorf("MessagesSent = %d, want %d (the self-send is no message)", st.MessagesSent, inboxSize+1)
	}
	close(gate)
	// A last frame from node 2 arrives behind everything queued so far.
	if err := b.Send(1, []byte("last")); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case p := <-got:
			if p == "self" {
				t.Fatal("self-send delivered")
			}
			if p == "last" {
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("inbox never drained")
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	net := New(WithLatency(Fixed(60 * time.Millisecond)))
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	start := time.Now()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~60ms", elapsed)
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)

	net.Crash(1)
	if err := a.Send(2, []byte("should drop")); err == nil {
		t.Error("send from crashed node: want error")
	}
	net.Restore(1)
	net.Crash(2)
	if err := a.Send(2, []byte("to crashed")); err != nil {
		t.Errorf("send to crashed node should not error: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := cb.snapshot(); len(got) != 0 {
		t.Errorf("crashed node received %v", got)
	}
	if !net.Crashed(2) || net.Crashed(1) {
		t.Error("crash bookkeeping wrong")
	}
}

func TestSendToUnknownNodeDrops(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	if err := a.Send(42, []byte("void")); err != nil {
		t.Errorf("send to unknown node: %v", err)
	}
	if s := net.Stats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestStats(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	for i := 0; i < 5; i++ {
		if err := a.Send(2, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, 5, time.Second)
	s := net.Stats()
	if s.MessagesSent != 5 || s.BytesSent != 20 {
		t.Errorf("stats = %+v", s)
	}
	net.ResetStats()
	if s := net.Stats(); s.MessagesSent != 0 {
		t.Errorf("after reset: %+v", s)
	}
}

func TestPayloadCopied(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	b := net.Node(2)
	cb := newCollector(b)
	buf := []byte("orig")
	if err := a.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	cb.wait(t, 1, time.Second)
	if got := cb.snapshot(); got[0] != "orig" {
		t.Errorf("payload aliased sender buffer: %q", got[0])
	}
}

func TestClosedEndpointSend(t *testing.T) {
	net := New()
	defer net.Close()
	a := net.Node(1)
	net.Node(2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err == nil {
		t.Error("send on closed endpoint: want error")
	}
}

func TestNodeIdempotent(t *testing.T) {
	net := New()
	defer net.Close()
	if net.Node(7) != net.Node(7) {
		t.Error("Node(7) returned two endpoints")
	}
}

func TestRegionsModel(t *testing.T) {
	m := Regions(4, 0, time.Millisecond, 8*time.Millisecond, 12*time.Millisecond)
	// nodes 0 and 4 share region 0; nodes 0 and 1 do not.
	if d := m(0, 4, 0.5); d >= time.Millisecond {
		t.Errorf("intra-region latency %v", d)
	}
	if d := m(0, 1, 0.5); d < 8*time.Millisecond || d >= 12*time.Millisecond {
		t.Errorf("inter-region latency %v", d)
	}
	e := EuropeWAN()
	if d := e(0, 1, 0.0); d < 8*time.Millisecond {
		t.Errorf("EuropeWAN inter latency %v", d)
	}
}

func TestUniformJitterBounds(t *testing.T) {
	net := New(WithSeed(123))
	m := Uniform(5*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 1000; i++ {
		d := m(0, 1, types.Uniform(&net.prng))
		if d < 5*time.Millisecond || d >= 10*time.Millisecond {
			t.Fatalf("sample %v out of bounds", d)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := New(WithLatency(Uniform(0, time.Millisecond)))
	defer net.Close()
	const senders, per = 8, 100
	dst := net.Node(99)
	cd := newCollector(dst)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := net.Node(transport.NodeID(s))
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(99, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	cd.wait(t, senders*per, 5*time.Second)
}
