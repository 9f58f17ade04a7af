package brb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// harness builds a BRB group of n replicas over a memnet.
type harness struct {
	t     *testing.T
	net   *memnet.Network
	n, f  int
	peers []types.ReplicaID
	muxes []*transport.Mux
	bcs   []Broadcaster

	mu       sync.Mutex
	dlv      map[types.ReplicaID][]delivery // per receiving replica
	dlvCh    chan struct{}
	registry *crypto.Registry
	keys     []*crypto.KeyPair
}

type protocol int

const (
	protoBracha protocol = iota + 1
	protoSigned
)

func newHarness(t *testing.T, proto protocol, n int, opts ...func(*Config)) *harness {
	t.Helper()
	h := &harness{
		t:     t,
		net:   memnet.New(memnet.WithSeed(42)),
		n:     n,
		f:     types.MaxFaults(n),
		dlv:   make(map[types.ReplicaID][]delivery),
		dlvCh: make(chan struct{}, 1<<16),
	}
	t.Cleanup(h.net.Close)
	for i := 0; i < n; i++ {
		h.peers = append(h.peers, types.ReplicaID(i))
	}
	if proto == protoSigned {
		h.registry = crypto.NewRegistry()
		for i := 0; i < n; i++ {
			kp := crypto.MustGenerateKeyPair()
			h.keys = append(h.keys, kp)
			h.registry.Add(types.ReplicaID(i), kp.Public())
		}
	}
	for i := 0; i < n; i++ {
		self := types.ReplicaID(i)
		mux := transport.NewMux(h.net.Node(transport.ReplicaNode(self)))
		h.muxes = append(h.muxes, mux)
		cfg := Config{
			Mux:   mux,
			Self:  self,
			Peers: h.peers,
			F:     h.f,
			Deliver: func(origin types.ReplicaID, slot uint64, payload []byte) {
				h.mu.Lock()
				h.dlv[self] = append(h.dlv[self], delivery{origin: origin, slot: slot, payload: payload})
				h.mu.Unlock()
				h.dlvCh <- struct{}{}
			},
		}
		if proto == protoSigned {
			cfg.Keys = h.keys[i]
			cfg.Registry = h.registry
		}
		for _, o := range opts {
			o(&cfg)
		}
		var bc Broadcaster
		var err error
		switch proto {
		case protoBracha:
			bc, err = NewBracha(cfg)
		case protoSigned:
			bc, err = NewSigned(cfg)
		}
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		h.bcs = append(h.bcs, bc)
	}
	return h
}

// waitDeliveries blocks until total deliveries across all replicas reach
// want, or the timeout elapses.
func (h *harness) waitDeliveries(want int, timeout time.Duration) int {
	h.t.Helper()
	deadline := time.After(timeout)
	for {
		h.mu.Lock()
		total := 0
		for _, d := range h.dlv {
			total += len(d)
		}
		h.mu.Unlock()
		if total >= want {
			return total
		}
		select {
		case <-h.dlvCh:
		case <-deadline:
			h.mu.Lock()
			total := 0
			for _, d := range h.dlv {
				total += len(d)
			}
			h.mu.Unlock()
			return total
		}
	}
}

func (h *harness) deliveriesAt(r types.ReplicaID) []delivery {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]delivery, len(h.dlv[r]))
	copy(out, h.dlv[r])
	return out
}

func testBothProtocols(t *testing.T, f func(t *testing.T, proto protocol)) {
	t.Run("bracha", func(t *testing.T) { f(t, protoBracha) })
	t.Run("signed", func(t *testing.T) { f(t, protoSigned) })
}

func TestBroadcastDeliversEverywhere(t *testing.T) {
	testBothProtocols(t, func(t *testing.T, proto protocol) {
		h := newHarness(t, proto, 4)
		if _, err := h.bcs[0].Broadcast([]byte("payment-1")); err != nil {
			t.Fatal(err)
		}
		if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
			t.Fatalf("deliveries = %d, want 4", got)
		}
		for r := 0; r < 4; r++ {
			d := h.deliveriesAt(types.ReplicaID(r))
			if len(d) != 1 || string(d[0].payload) != "payment-1" || d[0].origin != 0 || d[0].slot != 1 {
				t.Errorf("replica %d: %+v", r, d)
			}
		}
	})
}

func TestFIFOOrderPerOrigin(t *testing.T) {
	testBothProtocols(t, func(t *testing.T, proto protocol) {
		h := newHarness(t, proto, 4)
		const k = 10
		for i := 1; i <= k; i++ {
			if _, err := h.bcs[1].Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.waitDeliveries(4*k, 10*time.Second); got != 4*k {
			t.Fatalf("deliveries = %d, want %d", got, 4*k)
		}
		for r := 0; r < 4; r++ {
			d := h.deliveriesAt(types.ReplicaID(r))
			for i, dv := range d {
				if dv.slot != uint64(i+1) {
					t.Fatalf("replica %d: delivery %d has slot %d", r, i, dv.slot)
				}
				if want := fmt.Sprintf("m%d", i+1); string(dv.payload) != want {
					t.Fatalf("replica %d: payload %q, want %q", r, dv.payload, want)
				}
			}
		}
	})
}

func TestConcurrentOrigins(t *testing.T) {
	testBothProtocols(t, func(t *testing.T, proto protocol) {
		h := newHarness(t, proto, 7)
		const per = 5
		for r := 0; r < 7; r++ {
			for i := 0; i < per; i++ {
				if _, err := h.bcs[r].Broadcast([]byte(fmt.Sprintf("r%d-m%d", r, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := 7 * 7 * per
		if got := h.waitDeliveries(want, 15*time.Second); got != want {
			t.Fatalf("deliveries = %d, want %d", got, want)
		}
		// Per-origin FIFO at every replica.
		for r := 0; r < 7; r++ {
			last := make(map[types.ReplicaID]uint64)
			for _, dv := range h.deliveriesAt(types.ReplicaID(r)) {
				if dv.slot != last[dv.origin]+1 {
					t.Fatalf("replica %d: origin %d slot %d after %d", r, dv.origin, dv.slot, last[dv.origin])
				}
				last[dv.origin] = dv.slot
			}
		}
	})
}

func TestAgreementUnderEquivocation(t *testing.T) {
	// A Byzantine origin sends PREPARE with payload A to half the
	// replicas and payload B to the other half, for the same slot.
	// Agreement: no two correct replicas may deliver different payloads;
	// (with a split vote, typically nobody delivers).
	t.Run("bracha", func(t *testing.T) {
		h := newHarness(t, protoBracha, 4)
		byz := h.net.Node(transport.ReplicaNode(99))
		mux := transport.NewMux(byz)
		_ = mux
		// Use replica 3's identity slot space: we forge PREPAREs "from"
		// node 99, which onMessage rejects unless peer == origin. So
		// instead replace replica 3's broadcaster usage: craft prepares
		// directly from node 3's endpoint... Simpler: drive replica 3's
		// mux directly.
		a := EncodePrepare(3, 1, []byte("A"))
		b := EncodePrepare(3, 1, []byte("B"))
		auth3 := crypto.NewLinkAuthenticator(3, nil) // harness uses no Auth
		_ = auth3
		for i := 0; i < 2; i++ {
			_ = h.muxes[3].Send(transport.ReplicaNode(types.ReplicaID(i)), transport.ChanBRB, a)
		}
		_ = h.muxes[3].Send(transport.ReplicaNode(2), transport.ChanBRB, b)
		time.Sleep(300 * time.Millisecond)
		checkAgreement(t, h)
	})
	t.Run("signed", func(t *testing.T) {
		h := newHarness(t, protoSigned, 4)
		a := EncodePrepare(3, 1, []byte("A"))
		b := EncodePrepare(3, 1, []byte("B"))
		for i := 0; i < 2; i++ {
			_ = h.muxes[3].Send(transport.ReplicaNode(types.ReplicaID(i)), transport.ChanBRB, a)
		}
		_ = h.muxes[3].Send(transport.ReplicaNode(2), transport.ChanBRB, b)
		time.Sleep(300 * time.Millisecond)
		checkAgreement(t, h)
	})
}

func checkAgreement(t *testing.T, h *harness) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	byID := make(map[instanceID]string)
	for r, ds := range h.dlv {
		for _, dv := range ds {
			id := instanceID{origin: dv.origin, slot: dv.slot}
			if prev, ok := byID[id]; ok && prev != string(dv.payload) {
				t.Fatalf("agreement violated at replica %d: id %+v delivered %q and %q", r, id, prev, dv.payload)
			}
			byID[id] = string(dv.payload)
		}
	}
}

func TestBrachaToleratesCrashFaults(t *testing.T) {
	// With n=4, f=1: one replica crashed, broadcasts from a correct
	// origin still deliver at the remaining 3 replicas.
	h := newHarness(t, protoBracha, 4)
	h.net.Crash(transport.ReplicaNode(3))
	if _, err := h.bcs[0].Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(3, 5*time.Second); got < 3 {
		t.Fatalf("deliveries = %d, want >= 3", got)
	}
}

func TestSignedToleratesCrashFaults(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	h.net.Crash(transport.ReplicaNode(3))
	if _, err := h.bcs[0].Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(3, 5*time.Second); got < 3 {
		t.Fatalf("deliveries = %d, want >= 3", got)
	}
}

func TestValidatorWithholdsEndorsement(t *testing.T) {
	testBothProtocols(t, func(t *testing.T, proto protocol) {
		reject := func(cfg *Config) {
			cfg.Validator = func(origin types.ReplicaID, slot uint64, payload []byte) bool {
				return string(payload) != "bad"
			}
		}
		h := newHarness(t, proto, 4, reject)
		if _, err := h.bcs[0].Broadcast([]byte("bad")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond)
		if got := h.waitDeliveries(1, 100*time.Millisecond); got != 0 {
			t.Fatalf("rejected payload delivered %d times", got)
		}
		// A good payload still goes through, in the next slot.
		if _, err := h.bcs[0].Broadcast([]byte("good")); err != nil {
			t.Fatal(err)
		}
		// Slot 1 was never delivered, so slot 2 must be held back by FIFO.
		time.Sleep(300 * time.Millisecond)
		if got := h.waitDeliveries(1, 100*time.Millisecond); got != 0 {
			t.Fatal("slot 2 delivered before slot 1 (FIFO violation)")
		}
	})
}

func TestBrachaMACAuthenticationRejectsForgery(t *testing.T) {
	master := []byte("shared")
	withAuth := func(cfg *Config) {
		cfg.Auth = crypto.NewLinkAuthenticator(cfg.Self, master)
	}
	h := newHarness(t, protoBracha, 4, withAuth)
	// Legit broadcast flows.
	if _, err := h.bcs[0].Broadcast([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("authenticated broadcast: deliveries = %d", got)
	}
	// An attacker without the master secret injects a forged READY storm
	// for a bogus instance; replicas must discard it.
	evil := transport.NewMux(h.net.Node(transport.ReplicaNode(50)))
	forged := EncodeReady(0, 2, []byte("forged"))
	for i := 0; i < 4; i++ {
		msg := append(append([]byte{}, forged...), make([]byte, 32)...) // zero tag
		_ = evil.Send(transport.ReplicaNode(types.ReplicaID(i)), transport.ChanBRB, msg)
	}
	time.Sleep(200 * time.Millisecond)
	if got := h.waitDeliveries(5, 100*time.Millisecond); got != 4 {
		t.Fatalf("forged traffic caused deliveries: %d", got)
	}
}

func TestSignedRejectsForgedCommit(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	// A Byzantine node crafts a COMMIT with a garbage certificate.
	evil := transport.NewMux(h.net.Node(transport.ReplicaNode(50)))
	cert := AckCert{Sigs: []AckSig{
		{Replica: 0, Sig: []byte("junk")},
		{Replica: 1, Sig: []byte("junk")},
		{Replica: 2, Sig: []byte("junk")},
	}}
	msg := EncodeCommitTab(0, 1, []byte("stolen"), cert)
	for i := 0; i < 4; i++ {
		_ = evil.Send(transport.ReplicaNode(types.ReplicaID(i)), transport.ChanBRB, msg)
	}
	time.Sleep(200 * time.Millisecond)
	if got := h.waitDeliveries(1, 100*time.Millisecond); got != 0 {
		t.Fatalf("forged commit delivered %d times", got)
	}
}

func TestSignedMessageComplexityLinear(t *testing.T) {
	// O(N) check: messages per broadcast should be ~3N (prepare + ack +
	// commit), versus Bracha's ~2N²+N.
	n := 10
	h := newHarness(t, protoSigned, n)
	h.net.ResetStats()
	if _, err := h.bcs[0].Broadcast([]byte("count me")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(n, 5*time.Second); got != n {
		t.Fatalf("deliveries = %d", got)
	}
	msgs := h.net.Stats().MessagesSent
	if max := uint64(4 * n); msgs > max {
		t.Errorf("signed BRB used %d messages, want <= %d (O(N))", msgs, max)
	}
}

func TestBrachaMessageComplexityQuadratic(t *testing.T) {
	n := 10
	h := newHarness(t, protoBracha, n)
	h.net.ResetStats()
	if _, err := h.bcs[0].Broadcast([]byte("count me")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(n, 5*time.Second); got != n {
		t.Fatalf("deliveries = %d", got)
	}
	msgs := h.net.Stats().MessagesSent
	// prepare N + echo N² + ready N² = 2N²+N (some duplicate-suppression
	// slack allowed).
	if min := uint64(n * n); msgs < min {
		t.Errorf("bracha used %d messages, expected >= %d (O(N²))", msgs, min)
	}
}

func TestConfigValidation(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	mux := transport.NewMux(net.Node(1))
	_, err := NewBracha(Config{Mux: mux, Self: 0, Peers: []types.ReplicaID{0, 1}, F: 1,
		Deliver: func(types.ReplicaID, uint64, []byte) {}})
	if err == nil {
		t.Error("n < 3f+1 accepted")
	}
	_, err = NewBracha(Config{Mux: mux, Self: 0, Peers: []types.ReplicaID{0, 1, 2, 3}, F: 1})
	if err == nil {
		t.Error("nil Deliver accepted")
	}
	_, err = NewSigned(Config{Mux: mux, Self: 0, Peers: []types.ReplicaID{0, 1, 2, 3}, F: 1,
		Deliver: func(types.ReplicaID, uint64, []byte) {}})
	if err == nil {
		t.Error("signed without keys accepted")
	}
}

func TestDeliveredCounter(t *testing.T) {
	testBothProtocols(t, func(t *testing.T, proto protocol) {
		h := newHarness(t, proto, 4)
		for i := 0; i < 3; i++ {
			if _, err := h.bcs[2].Broadcast([]byte("p")); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.waitDeliveries(12, 5*time.Second); got != 12 {
			t.Fatalf("deliveries = %d", got)
		}
		for r := 0; r < 4; r++ {
			if got := h.bcs[r].Delivered(2); got != 3 {
				t.Errorf("replica %d Delivered(2) = %d, want 3", r, got)
			}
			if got := h.bcs[r].Delivered(0); got != 0 {
				t.Errorf("replica %d Delivered(0) = %d, want 0", r, got)
			}
		}
	})
}

func TestFIFOHelper(t *testing.T) {
	f := newFIFO()
	// out-of-order arrival: slots 2,3 buffered until 1 arrives.
	if out := f.ready(instanceID{origin: 1, slot: 2}, []byte("b")); len(out) != 0 {
		t.Fatalf("slot 2 delivered early: %v", out)
	}
	if out := f.ready(instanceID{origin: 1, slot: 3}, []byte("c")); len(out) != 0 {
		t.Fatalf("slot 3 delivered early: %v", out)
	}
	out := f.ready(instanceID{origin: 1, slot: 1}, []byte("a"))
	if len(out) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(out))
	}
	for i, dv := range out {
		if dv.slot != uint64(i+1) {
			t.Errorf("delivery %d slot %d", i, dv.slot)
		}
	}
	// duplicates and stale slots ignored
	if out := f.ready(instanceID{origin: 1, slot: 1}, []byte("a")); len(out) != 0 {
		t.Error("stale slot redelivered")
	}
	// independent origins do not interfere
	if out := f.ready(instanceID{origin: 2, slot: 1}, []byte("z")); len(out) != 1 {
		t.Error("origin 2 blocked by origin 1")
	}
}
