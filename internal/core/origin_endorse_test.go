package core

// Tests of the dependency rule with the batch origin as an endorser: a
// representative's own settlement endorses its clients' credit groups,
// and the batch it attaches the dependency to carries that endorsement in
// its authenticated PREPARE, so VerifyDependency counts an in-shard origin
// as one of the f+1.

import (
	"errors"
	"slices"
	"testing"

	"astro/internal/crypto"
	"astro/internal/types"
)

// depRuleFixture holds two shards' keys: replicas 0..perShard-1 form
// shard 0, the next perShard shard 1. Clients below 100 live in shard 0.
type depRuleFixture struct {
	reg      *crypto.Registry
	keys     []*crypto.KeyPair
	perShard int
	group    []types.Payment
}

func newDepRuleFixture(t *testing.T, perShard int) *depRuleFixture {
	t.Helper()
	fx := &depRuleFixture{reg: crypto.NewRegistry(), perShard: perShard, group: []types.Payment{pay(1, 1, 2, 10), pay(3, 4, 2, 5)}}
	for i := 0; i < 2*perShard; i++ {
		kp := crypto.MustGenerateKeyPair()
		fx.keys = append(fx.keys, kp)
		fx.reg.Add(types.ReplicaID(i), kp.Public())
	}
	return fx
}

func (fx *depRuleFixture) shardOf(c types.ClientID) types.ShardID {
	if c < 100 {
		return 0
	}
	return 1
}

func (fx *depRuleFixture) replicaShard(r types.ReplicaID) types.ShardID {
	return types.ShardID(int(r) / fx.perShard)
}

// dep builds the fixture group's dependency signed by the given replicas.
func (fx *depRuleFixture) dep(t *testing.T, signers ...int) Dependency {
	t.Helper()
	d := Dependency{Group: fx.group}
	for _, r := range signers {
		d.Cert.Sigs = append(d.Cert.Sigs, loneDepSig(t, fx.keys[r], r, fx.group))
	}
	return d
}

func (fx *depRuleFixture) verify(d Dependency, origin types.ReplicaID, f int) error {
	return VerifyDependency(d, origin, nil, fx.reg, f, fx.shardOf, fx.replicaShard)
}

// TestVerifyDependencyOriginEndorses: f valid signatures from replicas
// other than the origin suffice exactly when the origin belongs to the
// spenders' shard; the origin's explicit signature never counts a second
// time; a cross-shard dependency still needs f+1 signatures.
func TestVerifyDependencyOriginEndorses(t *testing.T) {
	for _, tc := range []struct {
		name     string
		perShard int
		f        int
		origin   types.ReplicaID
		signers  []int
		ok       bool
	}{
		{"in-shard origin and f signatures", 4, 1, 0, []int{1}, true},
		{"in-shard origin and no signature", 4, 1, 0, nil, false},
		{"in-shard origin whose own signature is the only one", 4, 1, 0, []int{0}, false},
		{"in-shard origin, its own signature and f others", 4, 1, 0, []int{0, 1}, true},
		{"in-shard origin and an out-of-shard signer", 4, 1, 0, []int{5}, false},
		{"cross-shard origin and f signatures", 4, 1, 4, []int{1}, false},
		{"cross-shard origin and f+1 signatures", 4, 1, 4, []int{1, 2}, true},
		{"cross-shard origin's own signature", 4, 1, 4, []int{4, 1}, false},
		{"f=2: in-shard origin and f signatures", 7, 2, 3, []int{0, 6}, true},
		{"f=2: in-shard origin, its own signature and f-1 others", 7, 2, 3, []int{3, 6}, false},
		{"f=2: cross-shard origin and f signatures", 7, 2, 8, []int{0, 6}, false},
		{"f=2: cross-shard origin and f+1 signatures", 7, 2, 8, []int{0, 1, 6}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newDepRuleFixture(t, tc.perShard)
			err := fx.verify(fx.dep(t, tc.signers...), tc.origin, tc.f)
			if (err == nil) != tc.ok {
				t.Fatalf("VerifyDependency = %v, want ok=%v", err, tc.ok)
			}
			if err != nil && !errors.Is(err, crypto.ErrCertTooSmall) {
				t.Fatalf("rejected for the wrong reason: %v", err)
			}
		})
	}
}

// TestScreenStripsForgedDepsIdentically: a Byzantine in-shard
// representative attaches dependencies whose signatures are forged,
// duplicated, or only its own. Every replica's screen strips exactly the
// same ones and keeps those backed by f valid signatures of other
// replicas.
func TestScreenStripsForgedDepsIdentically(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	const origin = types.ReplicaID(1)
	group := []types.Payment{pay(3, 1, 5, 10)}
	sign := func(r int) DepSig { return loneDepSig(t, c.keys[r], r, group) }
	forged := sign(2)
	forged.Sig = slices.Clone(forged.Sig)
	forged.Sig[5] ^= 0x5a
	deps := []Dependency{
		{Group: group, Cert: DepCert{Sigs: []DepSig{sign(2)}}},              // f valid others: kept
		{Group: group, Cert: DepCert{Sigs: []DepSig{forged}}},               // forged
		{Group: group, Cert: DepCert{Sigs: []DepSig{sign(1)}}},              // the origin's own only
		{Group: group, Cert: DepCert{Sigs: []DepSig{sign(2), sign(2)}}},     // a valid signer repeated: kept
		{Group: group, Cert: DepCert{Sigs: []DepSig{forged, sign(1)}}},      // forged plus the origin's
		{Group: group, Cert: DepCert{Sigs: []DepSig{sign(0), forged}}},      // one valid other: kept
		{Group: group[:0], Cert: DepCert{Sigs: []DepSig{sign(0), sign(3)}}}, // empty group
	}
	for i, r := range c.replicas {
		entries := []BatchEntry{{Payment: pay(5, 1, 6, 1), Deps: slices.Clone(deps)}}
		r.screenDependencies(origin, entries)
		var kept []int
		for _, d := range entries[0].Deps {
			kept = append(kept, slices.IndexFunc(deps, func(x Dependency) bool { return &x.Cert.Sigs[0] == &d.Cert.Sigs[0] }))
		}
		if !slices.Equal(kept, []int{0, 3, 5}) {
			t.Fatalf("replica %d kept dependencies %v, want [0 3 5]", i, kept)
		}
	}
}
