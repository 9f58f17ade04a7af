package tcpnet

// Frame parsing against a raw net.Conn peer: what the buffered read loop
// must get right whatever way the bytes are cut into reads.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"astro/internal/transport"
)

// rawFrame encodes one frame the way Send does.
func rawFrame(from transport.NodeID, payload []byte) []byte {
	f := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(f[0:4], uint32(4+len(payload)))
	binary.BigEndian.PutUint32(f[4:8], uint32(from))
	copy(f[8:], payload)
	return f
}

// rawPeer starts a listening endpoint whose handler forwards every frame
// to the returned channel, and dials it with a plain TCP connection.
func rawPeer(t *testing.T) (*Endpoint, net.Conn, chan inMsg) {
	t.Helper()
	srv, err := New(Config{Self: 1, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	got := make(chan inMsg, 2048)
	srv.SetHandler(func(from transport.NodeID, p []byte) { got <- inMsg{from: from, payload: p} })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return srv, conn, got
}

func expectFrame(t *testing.T, got chan inMsg, from transport.NodeID, payload []byte) {
	t.Helper()
	select {
	case m := <-got:
		if m.from != from || !bytes.Equal(m.payload, payload) {
			t.Fatalf("got frame from %d, %d bytes (%.16q…); want from %d, %d bytes (%.16q…)",
				m.from, len(m.payload), m.payload, from, len(payload), payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("frame from %d (%d bytes) never delivered", from, len(payload))
	}
}

func expectNoFrame(t *testing.T, got chan inMsg) {
	t.Helper()
	select {
	case m := <-got:
		t.Fatalf("unexpected frame from %d: %q", m.from, m.payload)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTCPFramingBurstInOneWrite(t *testing.T) {
	_, conn, got := rawPeer(t)
	var burst []byte
	for i := 0; i < 1000; i++ {
		burst = append(burst, rawFrame(7, []byte(fmt.Sprintf("submit-%04d", i)))...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		expectFrame(t, got, 7, []byte(fmt.Sprintf("submit-%04d", i)))
	}
	expectNoFrame(t, got)
}

func TestTCPFramingDribbledByteByByte(t *testing.T) {
	_, conn, got := rawPeer(t)
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	frame := rawFrame(7, []byte("split header, split payload"))
	for i := range frame {
		if _, err := conn.Write(frame[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 6 || i == 12 {
			// Let the reader see a header cut short, a sender id cut
			// short and a payload cut short, not one coalesced segment.
			time.Sleep(5 * time.Millisecond)
		}
	}
	expectFrame(t, got, 7, []byte("split header, split payload"))
	// An empty payload is a frame too, and the next one starts cleanly.
	if _, err := conn.Write(append(rawFrame(8, nil), rawFrame(7, []byte("next"))...)); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, got, 8, []byte{})
	expectFrame(t, got, 7, []byte("next"))
	expectNoFrame(t, got)
}

func TestTCPFramingLargeFrameBetweenSmallOnes(t *testing.T) {
	_, conn, got := rawPeer(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var stream []byte
	for _, p := range [][]byte{[]byte("before-1"), []byte("before-2"), big, []byte("after-1"), []byte("after-2")} {
		stream = append(stream, rawFrame(7, p)...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, got, 7, []byte("before-1"))
	expectFrame(t, got, 7, []byte("before-2"))
	expectFrame(t, got, 7, big)
	expectFrame(t, got, 7, []byte("after-1"))
	expectFrame(t, got, 7, []byte("after-2"))
}

// A frame length outside [4, maxFrame] ends the connection — but only
// after every good frame ahead of it in the same read was delivered, and
// without delivering anything behind it.
func TestTCPFramingBadLengthClosesAfterGoodFrames(t *testing.T) {
	for _, bad := range []uint32{0, 3, maxFrame + 1, 1<<32 - 1} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			_, conn, got := rawPeer(t)
			var stream []byte
			for i := 0; i < 3; i++ {
				stream = append(stream, rawFrame(7, []byte{byte('a' + i)})...)
			}
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[0:4], bad)
			binary.BigEndian.PutUint32(hdr[4:8], 7)
			stream = append(stream, hdr[:]...)
			stream = append(stream, rawFrame(7, []byte("behind the bad length"))...)
			if _, err := conn.Write(stream); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				expectFrame(t, got, 7, []byte{byte('a' + i)})
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err := conn.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("connection still open after a frame length of %d: %v", bad, err)
			}
			expectNoFrame(t, got)
		})
	}
}

// Close must not wait for a reader that is blocked handing a frame to a
// full inbox: the reader gives up on e.done, not on the dispatcher.
func TestTCPCloseWithReaderBlockedOnFullInbox(t *testing.T) {
	srv, err := New(Config{Self: 1, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.SetHandler(func(transport.NodeID, []byte) { <-release })
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One frame sits in the stalled handler, cap(inbox) fill the inbox,
	// the next is in the reader's hand, the rest stay in the buffer.
	var stream []byte
	for i := 0; i < cap(srv.inbox)+256; i++ {
		stream = append(stream, rawFrame(7, []byte{1})...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inbox) < cap(srv.inbox) {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never filled: %d of %d", len(srv.inbox), cap(srv.inbox))
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	for !srv.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release) // the dispatcher's stalled handler call returns; the reader was never its business
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a reader blocked on the full inbox")
	}
}
