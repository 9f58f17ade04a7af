package brb

// Tests for Signed's one commit form: every commit is a single
// self-contained COMMITTAB from the origin to each other member, nothing
// is asked of the origin after its slot commits, and frames of the
// retired kinds — the chain-reference protocol's and the single-slot
// ACK — are ignored.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// frameCounter tallies the ChanBRB frames a harness's replicas send: per
// message kind, per sending node, and COMMITTABs per instance.
type frameCounter struct {
	mu      sync.Mutex
	kinds   map[byte]int
	sent    map[transport.NodeID]int
	commits map[instanceID]int
}

func newFrameCounter() *frameCounter {
	return &frameCounter{
		kinds:   make(map[byte]int),
		sent:    make(map[transport.NodeID]int),
		commits: make(map[instanceID]int),
	}
}

// wrap is a newHarnessOn endpoint wrapper feeding the counter.
func (c *frameCounter) wrap(ep transport.Endpoint) transport.Endpoint {
	return countingEndpoint{Endpoint: ep, c: c}
}

func (c *frameCounter) record(from transport.NodeID, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kinds[body[0]]++
	c.sent[from]++
	if body[0] == kindCommitTab {
		r := wire.NewReader(body[1:])
		id := instanceID{origin: types.ReplicaID(r.U32()), slot: r.U64()}
		c.commits[id]++
	}
}

func (c *frameCounter) sentBy(node transport.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[node]
}

type countingEndpoint struct {
	transport.Endpoint
	c *frameCounter
}

func (e countingEndpoint) Send(to transport.NodeID, frame []byte) error {
	if len(frame) > 1 && transport.Channel(frame[0]) == transport.ChanBRB {
		e.c.record(e.ID(), frame[1:])
	}
	return e.Endpoint.Send(to, frame)
}

// TestSignedOneCommitFramePerMember: with every origin keeping 64
// broadcasts in flight, so acks batch into chains that receivers have not
// all seen, each instance commits with exactly one COMMITTAB to each of
// the n-1 other members, and the group exchanges PREPARE, ACKBATCH and
// COMMITTAB frames only — no single-slot ACK, no demand for a chain, no
// definition, no second copy of a commit.
func TestSignedOneCommitFramePerMember(t *testing.T) {
	const n, per = 4, 64
	c := newFrameCounter()
	h := newHarnessOn(t, protoSigned, n, c.wrap)

	var origins sync.WaitGroup
	for r := 0; r < n; r++ {
		origins.Add(1)
		go func(r int) {
			defer origins.Done()
			for i := 0; i < per; i++ {
				if _, err := h.bcs[r].Broadcast([]byte(fmt.Sprintf("r%d-m%d", r, i))); err != nil {
					panic(err)
				}
			}
		}(r)
	}
	origins.Wait()
	want := n * n * per
	if got := h.waitDeliveries(want, 30*time.Second); got != want {
		t.Fatalf("deliveries = %d, want %d", got, want)
	}
	time.Sleep(100 * time.Millisecond) // let any straggling frame be counted

	c.mu.Lock()
	defer c.mu.Unlock()
	for kind, count := range c.kinds {
		switch kind {
		case kindPrepare, kindAckBatch, kindCommitTab:
		default:
			t.Errorf("%d frames of kind %d, which Signed never sends", count, kind)
		}
	}
	if len(c.commits) != n*per {
		t.Errorf("COMMITTABs for %d instances, want %d", len(c.commits), n*per)
	}
	for o := 0; o < n; o++ {
		for slot := uint64(1); slot <= per; slot++ {
			if got := c.commits[instanceID{origin: types.ReplicaID(o), slot: slot}]; got != n-1 {
				t.Errorf("origin %d slot %d: %d commit frames, want %d", o, slot, got, n-1)
			}
		}
	}
}

// TestSignedRetiredKindsIgnored: frames of the retired chain-reference
// kinds from a group member deliver nothing and draw no answer — a
// COMMITREF (kind 9) whose certificate is valid, and a CHAINNACK (kind
// 10) about a slot the receiver committed as origin.
func TestSignedRetiredKindsIgnored(t *testing.T) {
	const (
		commitRef byte = 9
		chainNack byte = 10
	)
	c := newFrameCounter()
	h := newHarnessOn(t, protoSigned, 4, c.wrap)
	if _, err := h.bcs[0].Broadcast([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4", got)
	}
	sent := c.sentBy(transport.ReplicaNode(0))

	// A COMMITREF for origin 3's slot 1: a certificate of single-slot
	// signatures by replicas 1 and 2, each marked as naming no chain.
	payload := []byte("by-reference")
	d := SignedDigest(3, 1, payload)
	ref := wire.NewWriter(256)
	appendHeader(ref, commitRef, 3, 1)
	ref.Chunk(payload)
	ref.U32(2)
	for _, r := range []types.ReplicaID{1, 2} {
		sig, err := h.keys[r].Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		ref.U32(uint32(r))
		ref.Chunk(sig)
		ref.U8(0)
	}
	// A CHAINNACK for replica 0's committed slot 1, naming one digest.
	nack := wire.NewWriter(64)
	appendHeader(nack, chainNack, 0, 1)
	wire.AppendDigestList(nack, []types.Digest{types.HashBytes([]byte("missing"))})
	for _, frame := range [][]byte{ref.Bytes(), nack.Bytes()} {
		if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, frame); err != nil {
			t.Fatal(err)
		}
	}

	// A COMMITTAB sent after them is processed, so they were too.
	barrier := signCommitFor(t, h, 2, 1, []byte("barrier"))
	if err := h.muxes[2].Send(transport.ReplicaNode(0), transport.ChanBRB, barrier); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(5, 5*time.Second); got < 5 {
		t.Fatalf("barrier commit never delivered: %d deliveries", got)
	}
	time.Sleep(100 * time.Millisecond)

	dlv := h.deliveriesAt(0)
	if len(dlv) != 2 || dlv[0].origin != 0 || dlv[1].origin != 2 {
		t.Errorf("replica 0 delivered %+v, want origin 0's slot and the barrier only", dlv)
	}
	if got := c.sentBy(transport.ReplicaNode(0)) - sent; got != 0 {
		t.Errorf("replica 0 answered the retired kinds with %d frames", got)
	}
}

// TestSignedRetiredAckKindCommitsNothing: validly signed acks of origin
// 0's slot in the retired single-slot ACK form (kind 4) from 2f members
// endorse nothing. With every member's own acks held back by the harness's
// gate, the slot stays uncommitted everywhere; releasing two members' held
// acks then commits it, so only the retired form stood in the way.
func TestSignedRetiredAckKindCommitsNothing(t *testing.T) {
	g := newAckGate()
	h := newHarnessOn(t, protoSigned, 4, g.wrap)
	payload := []byte("single-slot")
	slot, err := h.bcs[0].Broadcast(payload)
	if err != nil {
		t.Fatal(err)
	}
	d := SignedDigest(0, slot, payload)
	for _, r := range []types.ReplicaID{1, 2} {
		sig, err := h.keys[r].Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		ack := wire.NewWriter(128)
		appendHeader(ack, retiredAckKind, 0, slot)
		ack.Bytes32(d)
		ack.Chunk(sig)
		if err := g.inject(r, 0, ack.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.waitDeliveries(1, 500*time.Millisecond); got != 0 {
		t.Fatalf("single-slot ACKs committed the slot: %d deliveries", got)
	}

	g.release(1)
	g.release(2)
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries after releasing the held acks = %d, want 4", got)
	}
}

// TestSignedMineBounded: the origin's table of its own broadcasts holds
// only the slots in flight. Once a burst has committed — every slot of
// it delivered everywhere — the table is empty, however many slots were
// ever broadcast.
func TestSignedMineBounded(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	origin := h.bcs[0].(*Signed)
	const (
		slots = 10_000
		burst = 256 // broadcasts in flight at once
	)
	payload := make([]byte, 64)
	for i := 0; i < slots; i++ {
		if _, err := origin.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
		if (i+1)%burst != 0 && i+1 != slots {
			continue
		}
		if got := h.waitDeliveries(4*(i+1), 30*time.Second); got < 4*(i+1) {
			t.Fatalf("deliveries = %d, want %d", got, 4*(i+1))
		}
		origin.mu.Lock()
		n := len(origin.mine)
		origin.mu.Unlock()
		if n != 0 {
			t.Fatalf("after %d slots, all committed: len(mine) = %d, want 0", i+1, n)
		}
	}
}
