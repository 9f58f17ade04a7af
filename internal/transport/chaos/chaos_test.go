package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/transport/memnet"
)

// collector records frames delivered to an endpoint.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) handler(_ transport.NodeID, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.frames = append(c.frames, buf)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func waitCount(t *testing.T, c *collector, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: got %d frames, want %d", c.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func pair(t *testing.T, ctl *Controller) (transport.Endpoint, *collector, *memnet.Network) {
	t.Helper()
	net := memnet.New()
	t.Cleanup(net.Close)
	a := ctl.Wrap(net.Node(1))
	b := net.Node(2)
	col := &collector{}
	b.SetHandler(col.handler)
	a.SetHandler(func(transport.NodeID, []byte) {})
	return a, col, net
}

// TestSeedDeterminism: the same seed and send sequence must yield the
// same perturbation decisions, counter for counter.
func TestSeedDeterminism(t *testing.T) {
	run := func(seed uint64) Stats {
		ctl := NewController(seed)
		ctl.SetDefault(Rule{Drop: 0.3, Corrupt: 0.2, Duplicate: 0.25})
		a, _, _ := pair(t, ctl)
		for i := 0; i < 400; i++ {
			if err := a.Send(2, []byte{1, byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		return ctl.Stats()
	}
	s1, s2 := run(42), run(42)
	if s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	s3 := run(43)
	if s1 == s3 {
		t.Fatalf("different seeds produced identical stats %+v (suspicious)", s1)
	}
	if s1.Dropped == 0 || s1.Corrupted == 0 || s1.Duplicated == 0 {
		t.Fatalf("expected every perturbation to engage: %+v", s1)
	}
}

// TestDropAndDuplicate: delivered count = sent - dropped + duplicated.
func TestDropAndDuplicate(t *testing.T) {
	ctl := NewController(7)
	ctl.SetDefault(Rule{Drop: 0.5, Duplicate: 0.5})
	a, col, _ := pair(t, ctl)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(2, []byte{1, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := ctl.Stats()
	want := int(uint64(n) - st.Dropped + st.Duplicated)
	waitCount(t, col, want)
	time.Sleep(20 * time.Millisecond)
	if got := col.count(); got != want {
		t.Fatalf("delivered %d frames, want %d (stats %+v)", got, want, st)
	}
}

// TestCorruption flips exactly one byte per corrupted frame.
func TestCorruption(t *testing.T) {
	ctl := NewController(11)
	ctl.SetDefault(Rule{Corrupt: 1.0})
	a, col, _ := pair(t, ctl)
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := a.Send(2, orig); err != nil {
		t.Fatal(err)
	}
	waitCount(t, col, 1)
	got := col.frames[0]
	diff := 0
	for i := range orig {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted frame differs in %d bytes, want exactly 1 (%x vs %x)", diff, got, orig)
	}
	if ctl.Stats().Corrupted != 1 {
		t.Fatalf("corrupted counter = %d, want 1", ctl.Stats().Corrupted)
	}
}

// TestPartitionAndHeal: cross-group frames are blocked until Heal, and a
// node listed in no group still reaches everyone.
func TestPartitionAndHeal(t *testing.T) {
	ctl := NewController(3)
	a, col, net := pair(t, ctl)
	col3 := &collector{}
	net.Node(3).SetHandler(col3.handler)
	ctl.Partition([]transport.NodeID{1}, []transport.NodeID{2})
	for i := 0; i < 5; i++ {
		if err := a.Send(2, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send(3, []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, col3, 1)
	time.Sleep(20 * time.Millisecond)
	if got := col.count(); got != 0 {
		t.Fatalf("partition leaked %d frames", got)
	}
	if ctl.Stats().Blocked != 5 {
		t.Fatalf("blocked counter = %d, want 5", ctl.Stats().Blocked)
	}
	ctl.Heal()
	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, col, 1)
}

// TestLinkRulePrecedence: a directed link override beats the node and
// default rules, and applies one-way only (asymmetric).
func TestLinkRulePrecedence(t *testing.T) {
	ctl := NewController(5)
	ctl.SetDefault(Rule{Drop: 1.0})
	ctl.SetLinkRule(1, 2, Rule{Pass: true}) // clean link overrides the lossy default

	net := memnet.New()
	defer net.Close()
	a := ctl.Wrap(net.Node(1))
	c := ctl.Wrap(net.Node(3))
	col2 := &collector{}
	net.Node(2).SetHandler(col2.handler)

	if err := a.Send(2, []byte{1}); err != nil { // link override: delivered
		t.Fatal(err)
	}
	if err := c.Send(2, []byte{1}); err != nil { // default: dropped
		t.Fatal(err)
	}
	waitCount(t, col2, 1)
	time.Sleep(20 * time.Millisecond)
	if got := col2.count(); got != 1 {
		t.Fatalf("delivered %d frames, want 1 (link override should be the only clean path)", got)
	}
}

// TestNodeAndLinkDelay: a node rule delays every frame its node sends; a
// directed link rule replaces it on that link only, so the reverse
// direction stays fast; a zero rule removes either.
func TestNodeAndLinkDelay(t *testing.T) {
	ctl := NewController(4)
	net := memnet.New()
	defer net.Close()
	a, b, c := ctl.Wrap(net.Node(1)), ctl.Wrap(net.Node(2)), ctl.Wrap(net.Node(3))
	cols := map[transport.NodeID]*collector{}
	for _, ep := range []transport.Endpoint{a, b, c} {
		cols[ep.ID()] = &collector{}
		ep.SetHandler(cols[ep.ID()].handler)
	}
	// took sends one frame and returns how long it took to arrive.
	took := func(from transport.Endpoint, to transport.NodeID) time.Duration {
		t.Helper()
		want := cols[to].count() + 1
		start := time.Now()
		if err := from.Send(to, []byte{1}); err != nil {
			t.Fatal(err)
		}
		waitCount(t, cols[to], want)
		return time.Since(start)
	}
	slow := Rule{DelayMin: 30 * time.Millisecond, DelayMax: 30 * time.Millisecond}

	ctl.SetNodeRule(1, slow)
	if e := took(a, 3); e < 25*time.Millisecond {
		t.Fatalf("1→3 under a node rule arrived after %v, want ~30ms", e)
	}
	ctl.SetLinkRule(1, 2, Rule{Pass: true})
	if e := took(a, 2); e > 20*time.Millisecond {
		t.Fatalf("1→2 took %v; the link rule must replace the node rule", e)
	}
	ctl.SetNodeRule(1, Rule{})
	ctl.SetLinkRule(1, 2, slow)
	if e := took(a, 2); e < 25*time.Millisecond {
		t.Fatalf("1→2 arrived after %v, want ~30ms link delay", e)
	}
	if e := took(b, 1); e > 20*time.Millisecond {
		t.Fatalf("2→1 took %v; the reverse direction must not inherit the delay", e)
	}
	if e := took(a, 3); e > 20*time.Millisecond {
		t.Fatalf("1→3 took %v after the node rule was removed", e)
	}
	ctl.SetLinkRule(1, 2, Rule{})
	if e := took(a, 2); e > 20*time.Millisecond {
		t.Fatalf("1→2 still slow (%v) after the link rule was removed", e)
	}
}

// TestDelaySchedule: a schedule phase arms a delay rule at its offset and
// a later phase removes it; the stop function cancels unfired phases.
func TestDelaySchedule(t *testing.T) {
	ctl := NewController(9)
	a, col, _ := pair(t, ctl)

	fired := make(chan struct{})
	stop := ctl.StartSchedule([]Phase{
		{At: 0, Apply: func(c *Controller) {
			c.SetDefault(Rule{DelayMin: 5 * time.Millisecond, DelayMax: 10 * time.Millisecond})
			close(fired)
		}},
		{At: time.Hour, Apply: func(c *Controller) {
			t.Error("phase beyond stop() fired")
		}},
	})
	<-fired
	start := time.Now()
	if err := a.Send(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, col, 1)
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Fatalf("frame arrived after %v, expected >= ~5ms delay", e)
	}
	if ctl.Stats().Delayed != 1 {
		t.Fatalf("delayed counter = %d, want 1", ctl.Stats().Delayed)
	}
	stop()
}

// TestSelfSendUntouched: a send to self bypasses chaos entirely, even
// under a Block-everything default, so the transport's refusal reaches
// the caller instead of passing for packet loss.
func TestSelfSendUntouched(t *testing.T) {
	ctl := NewController(1)
	ctl.SetDefault(Rule{Block: true})
	net := memnet.New()
	defer net.Close()
	ep := ctl.Wrap(net.Node(1))
	if err := ep.Send(1, []byte{6}); !errors.Is(err, transport.ErrSelfSend) {
		t.Fatalf("Send(self) = %v, want %v", err, transport.ErrSelfSend)
	}
	if st := ctl.Stats(); st.Sent != 0 || st.Blocked != 0 {
		t.Fatalf("chaos saw the self-send: %+v", st)
	}
}
