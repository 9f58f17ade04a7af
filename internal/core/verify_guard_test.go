package core

// Signature-verification guard. The origin's authenticated PREPARE is its
// endorsement, so no replica ECDSA-verifies a signature that a batch's
// origin made about that batch: not the origin's ack inside its commit
// certificate, and not the representative's credit signature inside a
// dependency it attached to its own batch. Counted with one private
// verifier per replica, so a memo miss is a real ECDSA verification.

import (
	"testing"
	"time"

	"astro/internal/crypto/verifier"
	"astro/internal/types"
)

// TestVerifyBudgetPerInstanceAndDependency runs payments one at a time, so
// every ack and credit is signed on its own, and counts memo misses at the
// bystanders — replicas that are neither the batch origin nor the credit
// destination, and so verify only commit certificates and dependencies.
// A certificate holds 2f = 2 acks, none the origin's: a bystander in it
// verifies one signature, one outside it two. A dependency attached by an
// in-shard representative holds f = 1 signature of another replica.
func TestVerifyBudgetPerInstanceAndDependency(t *testing.T) {
	const (
		alice, carol, dave = types.ClientID(4), types.ClientID(5), types.ClientID(9) // reps 0, 1, 1
		k                  = 6
		amount             = 10
	)
	gen := func(c types.ClientID) types.Amount {
		if c == alice {
			return k * amount
		}
		return 0
	}
	var vers []*verifier.Verifier
	c := newCluster(t, AstroII, 4, gen, func(cfg *Config) {
		v := verifier.New(1)
		vers = append(vers, v)
		cfg.Verifier = v
	})
	t.Cleanup(func() {
		c.net.Close()
		for _, v := range vers {
			v.Close()
		}
	})
	misses := func(replicas ...int) uint64 {
		var n uint64
		for _, r := range replicas {
			_, m := vers[r].MemoStats()
			n += m
		}
		return n
	}

	// Phase 1: Alice (rep 0) pays Carol (rep 1); replicas 2 and 3 are
	// bystanders. k instances, no dependencies.
	before := misses(2, 3)
	a := c.client(alice)
	for i := 1; i <= k; i++ {
		c.payAndWait(a, carol, amount)
		c.waitSettledEverywhere(uint64(i), 5*time.Second)
	}
	perInstance := float64(misses(2, 3)-before) / k
	t.Logf("bystander verifies per instance: %.2f", perInstance)
	if perInstance > 3 {
		t.Errorf("bystanders of an instance verified %.2f signatures, budget 3: an origin ack is being verified", perInstance)
	}

	// Carol's representative holds k dependencies, one per payment.
	rep := c.replicas[1]
	for deadline := time.Now().Add(5 * time.Second); rep.Balance(carol) != k*amount; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Carol's credits never formed: balance %d", rep.Balance(carol))
		}
	}

	// Phase 2: Carol pays Dave, both represented by replica 1; replicas 0,
	// 2 and 3 are bystanders. Her first batch carries all k dependencies.
	// Each instance costs the three bystanders 1+1+2 certificate checks.
	before = misses(0, 2, 3)
	cl := c.client(carol)
	for i := 1; i <= k; i++ {
		c.payAndWait(cl, dave, amount)
		c.waitSettledEverywhere(uint64(k+i), 5*time.Second)
	}
	perDep := (float64(misses(0, 2, 3)-before) - 4*k) / k
	t.Logf("bystander verifies per dependency: %.2f", perDep)
	if perDep > 2 {
		t.Errorf("bystanders verified %.2f signatures per attached dependency, budget 2: the representative's own credit signature is being verified", perDep)
	}
}
