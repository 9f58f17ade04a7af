package verifier

import (
	"sync"
	"testing"

	"astro/internal/crypto"
	"astro/internal/types"
)

// testRegistry builds n real-ECDSA replicas and a certificate of all their
// signatures over digest.
func testRegistry(t testing.TB, n int, digest types.Digest) (*crypto.Registry, []*crypto.KeyPair, crypto.Certificate) {
	t.Helper()
	reg := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, n)
	var cert crypto.Certificate
	for i := 0; i < n; i++ {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Add(types.ReplicaID(i), keys[i].Public())
		sig, err := keys[i].Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		cert.Add(crypto.PartialSig{Replica: types.ReplicaID(i), Sig: sig})
	}
	return reg, keys, cert
}

func TestVerifyReplicaMemo(t *testing.T) {
	v := New(2)
	defer v.Close()
	d := types.HashBytes([]byte("m"))
	reg, keys, _ := testRegistry(t, 1, d)
	sig, err := keys[0].Sign(d)
	if err != nil {
		t.Fatal(err)
	}

	if !v.VerifyReplica(reg, 0, d, sig) {
		t.Fatal("valid signature rejected")
	}
	h0, m0 := v.MemoStats()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("after first verify: hits=%d misses=%d, want 0/1", h0, m0)
	}
	// Same (signer, digest, sig): must be a cache hit.
	if !v.VerifyReplica(reg, 0, d, sig) {
		t.Fatal("cached valid signature rejected")
	}
	h1, m1 := v.MemoStats()
	if h1 != 1 || m1 != 1 {
		t.Fatalf("after repeat verify: hits=%d misses=%d, want 1/1", h1, m1)
	}
	// Failures are memoized too.
	bad := append([]byte(nil), sig...)
	bad[len(bad)-1] ^= 0xff
	if v.VerifyReplica(reg, 0, d, bad) {
		t.Fatal("corrupted signature accepted")
	}
	if v.VerifyReplica(reg, 0, d, bad) {
		t.Fatal("corrupted signature accepted from cache")
	}
	h2, m2 := v.MemoStats()
	if h2 != 2 || m2 != 2 {
		t.Fatalf("after failed repeat: hits=%d misses=%d, want 2/2", h2, m2)
	}
}

// TestPrimeReplicaVouchesForOneSignature: priming makes exactly the
// primed (signer, digest, signature) a memo hit. A different signature
// over the same digest — valid or forged — and the same signature under
// another signer still go to ECDSA and get their true verdict.
func TestPrimeReplicaVouchesForOneSignature(t *testing.T) {
	v := New(2)
	defer v.Close()
	d := types.HashBytes([]byte("m"))
	reg, keys, _ := testRegistry(t, 2, d)
	sign := func() []byte {
		sig, err := keys[0].Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	own, other := sign(), sign() // ECDSA is randomized: two valid signatures, different bytes
	forged := append([]byte(nil), own...)
	forged[len(forged)-1] ^= 0xff

	v.PrimeReplica(0, d, own)
	if !v.VerifyReplica(reg, 0, d, own) {
		t.Fatal("primed signature rejected")
	}
	if h, m := v.MemoStats(); h != 1 || m != 0 {
		t.Fatalf("primed signature: hits=%d misses=%d, want 1/0", h, m)
	}
	if !v.VerifyReplica(reg, 0, d, other) {
		t.Fatal("second valid signature rejected")
	}
	if v.VerifyReplica(reg, 0, d, forged) {
		t.Fatal("forged signature over a primed digest accepted")
	}
	if v.VerifyReplica(reg, 1, d, own) {
		t.Fatal("primed signature accepted under another signer")
	}
	if h, m := v.MemoStats(); h != 1 || m != 3 {
		t.Fatalf("unprimed signatures: hits=%d misses=%d, want 1/3", h, m)
	}
}

func TestVerifyAsyncCallback(t *testing.T) {
	v := New(2)
	defer v.Close()
	d := types.HashBytes([]byte("m"))
	reg, keys, _ := testRegistry(t, 1, d)
	sig, _ := keys[0].Sign(d)

	res := make(chan bool, 1)
	check := func() bool { return v.VerifyReplica(reg, 0, d, sig) }
	f := v.VerifyAsync(check, func(ok bool) { res <- ok })
	if !f.Wait() {
		t.Fatal("future resolved false for valid signature")
	}
	if !<-res {
		t.Fatal("callback got false for valid signature")
	}
	// The memo hit path still resolves the future and fires the callback.
	f = v.VerifyAsync(check, func(ok bool) { res <- ok })
	if !f.Wait() || !<-res {
		t.Fatal("memoized async verify failed")
	}
}

func TestVerifyBatch(t *testing.T) {
	v := New(4)
	defer v.Close()
	trueN := func() bool { return true }
	falseN := func() bool { return false }

	if !v.VerifyBatch(nil).Wait() {
		t.Fatal("empty batch must pass")
	}
	if !v.VerifyBatch([]Check{trueN, trueN, trueN}).Wait() {
		t.Fatal("all-valid batch must pass")
	}
	if v.VerifyBatch([]Check{trueN, falseN, trueN}).Wait() {
		t.Fatal("batch with a failure must fail")
	}
}

func TestVerifyClientBatch(t *testing.T) {
	v := New(4)
	defer v.Close()
	keys := crypto.NewClientKeys()
	const n = 16
	sigs := make([]ClientSig, n)
	for i := 0; i < n; i++ {
		kp := crypto.MustGenerateKeyPair()
		keys.Add(types.ClientID(i), kp.Public())
		d := types.HashBytes([]byte{byte(i)})
		sig, err := kp.Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = ClientSig{Client: types.ClientID(i), Digest: d, Sig: sig}
	}
	if !v.VerifyClientBatch(keys, sigs).Wait() {
		t.Fatal("valid client batch rejected")
	}
	// One forged signature sinks the batch.
	forged := make([]ClientSig, n)
	copy(forged, sigs)
	forged[7].Sig = append([]byte(nil), sigs[7].Sig...)
	forged[7].Sig[2] ^= 0x55
	if v.VerifyClientBatch(keys, forged).Wait() {
		t.Fatal("client batch with forged signature accepted")
	}
}

func TestConcurrentUse(t *testing.T) {
	// Hammer one verifier from many goroutines mixing all entry points;
	// run under -race this is the data-race regression test.
	v := New(4, WithMemoSize(64)) // small memo to force eviction churn
	defer v.Close()
	d := types.HashBytes([]byte("m"))
	reg, keys, cert := testRegistry(t, 10, d)
	sig0, _ := keys[0].Sign(d)
	bad := append([]byte(nil), sig0...)
	bad[0] ^= 1

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !v.VerifyReplica(reg, 0, d, sig0) {
					errs <- "valid sig rejected"
				}
				if v.VerifyReplica(reg, 0, d, bad) {
					errs <- "bad sig accepted"
				}
				done := make(chan bool, 1)
				v.VerifyReplicaDetached(reg, types.ReplicaID(i%10), d, cert.Sigs[i%10].Sig, func(ok bool) { done <- ok })
				if !<-done {
					errs <- "valid sig rejected by the detached form"
				}
				f := v.VerifyAsync(func() bool {
					return v.VerifyReplica(reg, types.ReplicaID(i%10), d, cert.Sigs[i%10].Sig)
				}, nil)
				if !f.Wait() {
					errs <- "async valid sig rejected"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestMemoEviction(t *testing.T) {
	c := newMemoCache(2)
	k1 := memoKey(domainReplica, 1, types.Digest{}, []byte("a"))
	k2 := memoKey(domainReplica, 2, types.Digest{}, []byte("b"))
	k3 := memoKey(domainReplica, 3, types.Digest{}, []byte("c"))
	c.put(k1, true)
	c.put(k2, false)
	if _, hit := c.get(k1); !hit {
		t.Fatal("k1 evicted prematurely")
	}
	c.put(k3, true) // evicts k2 (least recently used)
	if _, hit := c.get(k2); hit {
		t.Fatal("k2 not evicted")
	}
	if ok, hit := c.get(k1); !hit || !ok {
		t.Fatal("k1 lost")
	}
	if ok, hit := c.get(k3); !hit || !ok {
		t.Fatal("k3 lost")
	}
	if got := c.len(); got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}
}

func TestCloseRunsInline(t *testing.T) {
	v := New(2)
	v.Close()
	ran := false
	f := v.VerifyAsync(func() bool { ran = true; return true }, nil)
	if !f.Wait() || !ran {
		t.Fatal("submission after Close did not run inline")
	}
}

func TestVerifyDetached(t *testing.T) {
	v := New(2)
	defer v.Close()
	d := types.HashBytes([]byte("m"))
	reg, keys, _ := testRegistry(t, 1, d)
	sig, _ := keys[0].Sign(d)

	res := make(chan bool, 2)
	v.VerifyReplicaDetached(reg, 0, d, sig, func(ok bool) { res <- ok })
	if !<-res {
		t.Fatal("detached verify of valid signature reported false")
	}
	// Second call is a memo hit: the callback must still fire, inline.
	v.VerifyReplicaDetached(reg, 0, d, sig, func(ok bool) { res <- ok })
	if !<-res {
		t.Fatal("memoized detached verify reported false")
	}
	v.VerifyDetached(func() bool { return false }, func(ok bool) { res <- ok })
	if <-res {
		t.Fatal("detached verify of failing check reported true")
	}
}
