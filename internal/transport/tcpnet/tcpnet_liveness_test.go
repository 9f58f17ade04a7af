package tcpnet

// Liveness regression tests for the PR 4 transport fixes: the startup
// parking of pre-handler frames, dial/backoff outside the per-peer lock
// (concurrent senders during peer death and redial), write deadlines
// against stalled readers, learned-route supersession on reconnect, and
// clean Close with sends in flight. The whole file is exercised under
// -race by the Makefile's race target.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/transport"
)

// TestTCPEarlyFramesParkedUntilHandler: frames arriving between New and
// SetHandler must not be dropped — they are parked and delivered, in
// order, once the handler is installed.
func TestTCPEarlyFramesParkedUntilHandler(t *testing.T) {
	a, b := pair(t)
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send(2, []byte(fmt.Sprintf("early-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Let the frames reach b's dispatch goroutine before any handler
	// exists (the pre-PR4 code dropped them here).
	time.Sleep(150 * time.Millisecond)

	ch := make(chan string, n)
	b.SetHandler(func(_ transport.NodeID, p []byte) { ch <- string(p) })
	for i := 0; i < n; i++ {
		select {
		case m := <-ch:
			if want := fmt.Sprintf("early-%d", i); m != want {
				t.Fatalf("parked frame %d = %q, want %q (order lost)", i, m, want)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("parked frame %d never delivered", i)
		}
	}
	// Later traffic flows behind the flushed backlog.
	if err := a.Send(2, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if m != "late" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("post-handler frame lost")
	}
}

// TestTCPConcurrentSendDuringPeerDeath: when the peer dies, concurrent
// senders must all fail (or succeed) promptly and independently — the dial
// and redial backoff run outside the per-peer lock, and the dial is
// single-flight. Afterwards, a peer reborn on the same address is reached
// again.
func TestTCPConcurrentSendDuringPeerDeath(t *testing.T) {
	a, b := pair(t)
	addr := b.Addr().String()
	if err := a.Send(2, []byte("warm-up")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	const senders = 8
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Errors are expected while the peer is down; what must not
			// happen is senders serializing behind one another's dial
			// attempts and backoff sleeps.
			_ = a.Send(2, []byte(fmt.Sprintf("dead-%d", i)))
		}(i)
	}
	wg.Wait()
	// One write failure + one backoff + one failed redial bounds each
	// sender; serialized behind a shared lock this would multiply by the
	// sender count.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("concurrent sends to a dead peer took %v", elapsed)
	}

	// Rebirth on the same address: redial reaches the new process.
	b2, err := New(Config{Self: 2, Listen: addr, Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatalf("reborn endpoint: %v", err)
	}
	t.Cleanup(func() { _ = b2.Close() })
	ch := make(chan string, 1)
	b2.SetHandler(func(_ transport.NodeID, p []byte) { ch <- string(p) })
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.Send(2, []byte("reborn")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("send to reborn peer never succeeded")
		}
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case m := <-ch:
		if m != "reborn" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("reborn peer never received")
	}
}

// TestTCPWriteDeadlineUnblocksStalledPeer: a peer that accepts the
// connection but never reads must not hold Send (and with it the per-peer
// lock) forever — the write deadline fails the sender.
func TestTCPWriteDeadlineUnblocksStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { <-stop; _ = c.Close() }(conn) // never read
		}
	}()

	a, err := New(Config{
		Self:          1,
		Peers:         map[transport.NodeID]string{2: ln.Addr().String()},
		WriteTimeout:  200 * time.Millisecond,
		RedialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	// Pump more frames than the kernel can buffer (loopback blocks within
	// a few MiB). Without the write deadline, the first write that fills
	// the buffers would block Send — holding the per-peer lock — forever;
	// with it, every Send returns (an error, or success after the
	// deadline-triggered teardown and redial). The only failure mode is
	// the pump wedging.
	payload := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			_ = a.Send(2, payload)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Send wedged on a stalled peer despite the write deadline")
	}
}

// TestTCPLearnedRouteSupersession: a peer with no configured address is
// reachable through its inbound connection; when it reconnects (client
// process restart), the NEWEST connection wins, including while the old
// one is still open — and still sending.
func TestTCPLearnedRouteSupersession(t *testing.T) {
	srv, err := New(Config{Self: 1, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	seen := make(chan string, 16)
	srv.SetHandler(func(_ transport.NodeID, p []byte) { seen <- string(p) })
	addr := srv.Addr().String()
	const clientID = transport.ClientNodeBase + 7

	newClient := func() (*Endpoint, chan string) {
		c, err := New(Config{Self: clientID, Peers: map[transport.NodeID]string{1: addr}})
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan string, 16)
		c.SetHandler(func(_ transport.NodeID, p []byte) { ch <- string(p) })
		return c, ch
	}

	c1, ch1 := newClient()
	t.Cleanup(func() { _ = c1.Close() })
	if err := c1.Send(1, []byte("hello-1")); err != nil {
		t.Fatal(err)
	}
	waitReply := func(ch chan string, want string) bool {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := srv.Send(clientID, []byte(want)); err == nil {
				select {
				case m := <-ch:
					if m == want {
						return true
					}
				case <-time.After(100 * time.Millisecond):
				}
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !waitReply(ch1, "reply-1") {
		t.Fatal("first client never reachable via learned route")
	}

	// Second client, same identity, c1 still open: the newer connection
	// supersedes the route.
	c2, ch2 := newClient()
	t.Cleanup(func() { _ = c2.Close() })
	if err := c2.Send(1, []byte("hello-2")); err != nil {
		t.Fatal(err)
	}
	if !waitReply(ch2, "reply-2") {
		t.Fatal("reconnected client never took over the learned route")
	}

	// The most recent *connection* wins, not the most recent frame: a read
	// loop learns a route on the first frame it sees from a sender, so the
	// superseded client, still alive and still sending on its old
	// connection, does not take the route back.
	if err := c1.Send(1, []byte("hello-1-again")); err != nil {
		t.Fatal(err)
	}
	for m := ""; m != "hello-1-again"; {
		select {
		case m = <-seen:
		case <-time.After(5 * time.Second):
			t.Fatal("frame on the superseded connection never arrived")
		}
	}
	if !waitReply(ch2, "reply-2b") {
		t.Fatal("a frame on the superseded connection took the route back")
	}
	for len(ch1) > 0 { // "reply-2"s from before c2 connected may sit here
		if m := <-ch1; m == "reply-2b" {
			t.Fatalf("superseded client still received %q", m)
		}
	}

	// After the superseded client dies, the route must stay with c2 (the
	// eviction of c1's connection must not clear c2's newer one).
	_ = c1.Close()
	time.Sleep(100 * time.Millisecond)
	if !waitReply(ch2, "reply-3") {
		t.Fatal("route lost after the superseded connection closed")
	}
}

// TestTCPCloseWithInflightSends: Close must return promptly and without
// races while senders are mid-Send, and sends after Close must error.
func TestTCPCloseWithInflightSends(t *testing.T) {
	a, b := pair(t)
	b.SetHandler(func(transport.NodeID, []byte) {})
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				_ = a.Send(2, []byte("inflight"))
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		_ = a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind in-flight sends")
	}
	stopped.Store(true)
	wg.Wait()
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestTCPParkedFramesBoundedPerPeer: while no handler is installed, one
// peer flooding the endpoint must not evict (or starve) another peer's
// parked frames — the per-peer cap sheds the flooder's excess and the
// quiet peer's traffic is still delivered when the handler lands.
func TestTCPParkedFramesBoundedPerPeer(t *testing.T) {
	c, err := New(Config{Self: 3, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	a, err := New(Config{Self: 1, Peers: map[transport.NodeID]string{3: c.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := New(Config{Self: 2, Peers: map[transport.NodeID]string{3: c.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	// Flood from a: 512 frames past the per-peer cap.
	for i := 0; i < maxParkedPerPeer+512; i++ {
		if err := a.Send(3, []byte("flood")); err != nil {
			t.Fatalf("flood send: %v", err)
		}
	}
	// One honest frame from b, after the flood.
	if err := b.Send(3, []byte("honest")); err != nil {
		t.Fatal(err)
	}
	// Let the whole flood reach c's dispatch goroutine pre-handler: every
	// frame past the cap must have been counted as shed. Installing the
	// handler at the first drop would leave the rest of the flood in the
	// socket, to be delivered live ahead of "honest" and miscounted below
	// as parked.
	deadline := time.Now().Add(5 * time.Second)
	for c.ParkDrops() < 512 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if drops := c.ParkDrops(); drops != 512 {
		t.Fatalf("per-peer parking cap shed %d frames of the flood, want 512", drops)
	}

	got := make(chan string, maxParked+1024)
	c.SetHandler(func(_ transport.NodeID, p []byte) { got <- string(p) })
	var floods int
	for {
		select {
		case m := <-got:
			if m == "honest" {
				if floods > maxParkedPerPeer {
					t.Fatalf("flooder parked %d frames, cap is %d", floods, maxParkedPerPeer)
				}
				return // honest frame survived the flood
			}
			floods++
		case <-time.After(5 * time.Second):
			t.Fatalf("honest frame evicted by flooder (saw %d flood frames, %d drops)",
				floods, c.ParkDrops())
		}
	}
}

// TestTCPRedialPauseJittered: the redial backoff must be spread over
// [0.5, 1.5) × RedialBackoff, not a fixed value — synchronized redials
// after a partition heal are the thundering herd this prevents.
func TestTCPRedialPauseJittered(t *testing.T) {
	e, err := New(Config{Self: 9, RedialBackoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	seen := make(map[time.Duration]bool)
	lo, hi := 50*time.Millisecond, 150*time.Millisecond
	for i := 0; i < 64; i++ {
		d := e.redialPause()
		if d < lo || d >= hi {
			t.Fatalf("pause %v outside [%v, %v)", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 32 {
		t.Fatalf("pauses not jittered: only %d distinct values in 64 draws", len(seen))
	}
}

// The converse of the last step above: when the *newer* connection of a
// client id closes while the older one is alive, the route is empty (no
// frame is in flight to re-learn it from), and the older connection's
// next frame restores it — a read loop re-offers its connection for an
// empty route after any connection has closed.
func TestTCPLearnedRouteRestoredByOlderConnection(t *testing.T) {
	srv, err := New(Config{Self: 1, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	seen := make(chan string, 16)
	srv.SetHandler(func(_ transport.NodeID, p []byte) { seen <- string(p) })
	const clientID = transport.ClientNodeBase + 7
	newClient := func() (*Endpoint, chan string) {
		c, err := New(Config{Self: clientID, Peers: map[transport.NodeID]string{1: srv.Addr().String()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		ch := make(chan string, 16)
		c.SetHandler(func(_ transport.NodeID, p []byte) { ch <- string(p) })
		return c, ch
	}
	sendAndWait := func(c *Endpoint, msg string) {
		t.Helper()
		if err := c.Send(1, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		for m := ""; m != msg; {
			select {
			case m = <-seen:
			case <-time.After(5 * time.Second):
				t.Fatalf("%q never arrived", msg)
			}
		}
	}

	older, olderCh := newClient()
	sendAndWait(older, "older-1")
	newer, newerCh := newClient()
	sendAndWait(newer, "newer-1")
	if err := srv.Send(clientID, []byte("to-newer")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-newerCh:
		if m != "to-newer" {
			t.Fatalf("newer connection read %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the newer connection never took the route")
	}

	// The newer connection dies; with nothing arriving, the route is lost.
	_ = newer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Send(clientID, []byte("nobody")) == nil {
		if time.Now().After(deadline) {
			t.Fatal("route survived its connection")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One frame on the older connection, and the client is reachable again.
	sendAndWait(older, "older-2")
	if err := srv.Send(clientID, []byte("to-older")); err != nil {
		t.Fatalf("route not restored by the surviving connection: %v", err)
	}
	select {
	case m := <-olderCh:
		if m != "to-older" {
			t.Fatalf("older connection read %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply never reached the surviving connection")
	}
}
