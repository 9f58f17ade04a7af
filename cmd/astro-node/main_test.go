package main

import (
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
	"astro/internal/wal"
)

// TestStartGateParksEarlyFrames: a frame that reaches the node after its
// mux exists but before the channel's handler is registered — the window
// NewReplica's log replay opens — must be delivered once the gate opens,
// not discarded by Mux.dispatch.
func TestStartGateParksEarlyFrames(t *testing.T) {
	node, err := tcpnet.New(tcpnet.Config{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	peer, err := tcpnet.New(tcpnet.Config{Self: 1, Peers: map[transport.NodeID]string{0: node.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	gate := &startGate{Endpoint: node}
	mux := transport.NewMux(gate)
	defer mux.Close()

	early := append([]byte{byte(transport.ChanPayment)}, "sent before registration"...)
	if err := peer.Send(0, early); err != nil {
		t.Fatal(err)
	}
	// Let the frame cross loopback and reach the endpoint's dispatch
	// goroutine while no channel is registered. Arriving later than this
	// could only hide the loss, never fake it.
	time.Sleep(100 * time.Millisecond)

	got := make(chan string, 1)
	mux.Register(transport.ChanPayment, func(_ transport.NodeID, payload []byte) { got <- string(payload) })
	gate.open()
	select {
	case p := <-got:
		if p != "sent before registration" {
			t.Fatalf("payload %q", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("frame sent before channel registration was lost")
	}
	if n := node.ParkDrops(); n != 0 {
		t.Fatalf("%d frames shed by the parking bounds", n)
	}
}

// refusingBackend is a wal.Backend whose appends fail once armed — a full
// disk, or a record over the backend's size limit.
type refusingBackend struct {
	wal.Nop
	armed atomic.Bool
}

var errRefused = errors.New("append refused")

func (b *refusingBackend) Append(byte, []byte) error {
	if b.armed.Load() {
		return errRefused
	}
	return nil
}

// TestServeFailStopsOnLostDurability: a serving node whose WAL refuses a
// write must stop with the structured durability_lost error instead of
// serving on; until then serve keeps waiting.
func TestServeFailStopsOnLostDurability(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	be := &refusingBackend{}
	keys := crypto.MustGenerateKeyPair()
	registry := crypto.NewRegistry()
	registry.Add(0, keys.Public())
	rep, err := core.NewReplica(core.Config{
		Version:  core.AstroII,
		Self:     0,
		Replicas: []types.ReplicaID{0},
		Mux:      transport.NewMux(net.Node(transport.ReplicaNode(0))),
		Genesis:  func(types.ClientID) types.Amount { return 100 },
		Auth:     crypto.NewLinkAuthenticator(0, []byte("test")),
		Keys:     keys,
		Registry: registry,
		WAL:      be,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Abandon()
	if err := durabilityErr(rep); err != nil {
		t.Fatalf("healthy replica reported %v", err)
	}

	exit := make(chan error, 1)
	go func() { exit <- serve(rep, make(chan os.Signal), 5*time.Millisecond) }()

	repOf := func(types.ClientID) types.ReplicaID { return 0 }
	client := core.NewClient(1, repOf, transport.NewMux(net.Node(transport.ClientNode(1))))
	pay := func() {
		t.Helper()
		id, err := client.Pay(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.WaitConfirm(id, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pay()
	select {
	case err := <-exit:
		t.Fatalf("serve stopped on a healthy log: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	be.armed.Store(true)
	pay() // settles in memory; its WAL records are refused
	select {
	case err := <-exit:
		if err == nil || !strings.Contains(err.Error(), "event=durability_lost replica=0 cause=wal") ||
			!strings.Contains(err.Error(), errRefused.Error()) {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve kept running after the WAL refused a write")
	}
}
