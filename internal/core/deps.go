package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/types"
	"astro/internal/wire"
)

// Astro II replaces direct beneficiary crediting with dependencies (paper
// §IV-A, §V, Listings 7–10): when a replica settles a payment, it unicasts
// a signed CREDIT message to the beneficiary's representative. f+1 matching
// endorsements form a dependency certificate — proof that the payment was
// approved by at least one correct replica of the spender's shard. A
// representative in the spender's shard endorses by its own settlement,
// unsigned: the certificate then carries f CREDIT signatures, and the
// representative's authenticated PREPARE of the batch it attaches the
// certificate to stands for the missing one (VerifyDependency). The
// certificate is attached to the beneficiary's next outgoing payment and
// materializes into balance when that payment settles.
//
// Following the paper's two-level batching (§VI-A), CREDIT messages carry
// *groups* of payments whose beneficiaries share the same representative
// — one digest per sub-batch rather than per payment. A settling replica
// signs the groups pending at its signer with ONE signature over a hash
// chain of their group digests (the CREDIT analogue of the BRB ack
// chains, scheduled by the same verifier.ChainSigner); a lone group is a
// chain of one, and groups of settlement waves that queue while an ECDSA
// is in flight join the next chain. A signature endorses a group only if
// the group's digest appears in its chain, and it rides inside dependency
// certificates as DepSig.Chain.

// CreditGroupDigest computes the digest a credit chain lists for a group:
// a domain-separated hash over the canonical encoding of the group.
func CreditGroupDigest(group []types.Payment) types.Digest {
	w := wire.AcquireWriter(5 + len(group)*types.PaymentWireSize)
	defer w.Release()
	w.U8(0x43) // domain: credit-group
	w.U32(uint32(len(group)))
	for _, p := range group {
		w.AppendFunc(p.AppendBinary)
	}
	return types.HashBytes(w.Bytes())
}

// CreditChainDomain separates chain signatures over credit-group digests
// from every other signed value in the system (0x43 credit groups, 0x44
// BRB ack chains, 0x45 client payments).
const CreditChainDomain = 0x46

// CreditChainDigest computes the digest a replica signs for a whole
// settlement wave of credit groups: a domain-separated hash over the
// ordered chain of group digests.
func CreditChainDigest(chain []types.Digest) types.Digest {
	return verifier.ChainDigest(CreditChainDomain, chain)
}

// DepSig is one signature of a dependency certificate. It covers
// CreditChainDigest(Chain), and it endorses a group only if that group's
// digest appears in the chain.
type DepSig struct {
	Replica types.ReplicaID
	Sig     []byte
	Chain   []types.Digest
}

// DepCert is a set of CREDIT signatures for one group.
type DepCert struct {
	Sigs []DepSig
}

// Len returns the number of signatures gathered.
func (c DepCert) Len() int { return len(c.Sigs) }

// Has reports whether the certificate already carries a signature by r.
func (c DepCert) Has(r types.ReplicaID) bool {
	for _, s := range c.Sigs {
		if s.Replica == r {
			return true
		}
	}
	return false
}

// Dependency is a credit group together with a certificate of signatures
// endorsing its digest by replicas of the spender's shard: f+1 of them,
// or f besides the batch origin when the origin is in that shard. It is
// verifiable in any shard against the global key registry and the public
// shard assignment.
type Dependency struct {
	Group []types.Payment
	Cert  DepCert
}

// Value returns the total amount the dependency credits to client c.
// A single group may credit several clients of the same representative;
// each extracts only its own payments.
func (d Dependency) Value(c types.ClientID) types.Amount {
	var sum types.Amount
	for _, p := range d.Group {
		if p.Beneficiary == c {
			sum += p.Amount
		}
	}
	return sum
}

// Errors from dependency verification.
var (
	ErrDepEmpty      = errors.New("dependency: empty group")
	ErrDepMixedShard = errors.New("dependency: spenders from different shards")
)

// VerifyDependency checks that the dependency, attached to a batch
// broadcast by origin, carries at least f+1 endorsements of the group from
// distinct replicas of the (single) shard all the group's spenders belong
// to. The origin's authenticated PREPARE is its endorsement: the batch
// committed under acks that correct replicas give only to a PREPARE
// carrying the origin's link tag, keyed by ECDH between the two ends'
// key pairs (brb.Signed), so the batch is the origin's own. When the
// origin belongs to the spenders' shard it counts as one of the f+1, so f
// valid signatures from other replicas suffice (none at f = 0), and an
// explicit origin signature is skipped rather than counted twice. Among an
// in-shard origin and f other signers at least one is correct. A
// cross-shard dependency still needs f+1 signatures. A signature endorses
// the group only if the group digest appears in its chain; its ECDSA
// verifies against the chain digest, so — through ver's memo — the k
// dependencies of one settlement wave cost one verification per signer,
// not k.
//
// When ver is non-nil the signature checks run through its memo cache,
// inline on the caller (no pool blocking, so it is safe from worker
// callbacks and lock-holding contexts alike). A nil ver falls back to the
// plain registry check. The payment engine screens dependencies on the
// delivery path *before* taking any stripe lock
// (Replica.screenDependencies), fanning these checks across the pool.
// The verdict depends only on the dependency, the origin and the key
// registry, so every correct replica strips the same dependencies.
func VerifyDependency(
	d Dependency,
	origin types.ReplicaID,
	ver *verifier.Verifier,
	reg *crypto.Registry,
	f int,
	shardOf func(types.ClientID) types.ShardID,
	replicaShard func(types.ReplicaID) types.ShardID,
) error {
	if len(d.Group) == 0 {
		return ErrDepEmpty
	}
	shard := shardOf(d.Group[0].Spender)
	for _, p := range d.Group[1:] {
		if shardOf(p.Spender) != shard {
			return ErrDepMixedShard
		}
	}
	need := f + 1
	originEndorses := replicaShard(origin) == shard
	if originEndorses {
		need--
	}
	if d.Cert.Len() < need {
		return fmt.Errorf("dependency: %w: have %d, need %d", crypto.ErrCertTooSmall, d.Cert.Len(), need)
	}
	digest := CreditGroupDigest(d.Group)
	seen := make(map[types.ReplicaID]struct{}, len(d.Cert.Sigs))
	valid := 0
	for _, ps := range d.Cert.Sigs {
		if _, dup := seen[ps.Replica]; dup {
			return fmt.Errorf("dependency: %w: replica %d", crypto.ErrCertDuplicate, ps.Replica)
		}
		seen[ps.Replica] = struct{}{}
		if originEndorses && ps.Replica == origin {
			continue // already counted by its PREPARE
		}
		if replicaShard(ps.Replica) != shard {
			continue // signer outside the spenders' shard: no endorsement
		}
		if !slices.Contains(ps.Chain, digest) {
			continue // chain does not endorse this group
		}
		dg := CreditChainDigest(ps.Chain)
		ok := false
		if ver != nil {
			ok = ver.VerifyReplica(reg, ps.Replica, dg, ps.Sig)
		} else {
			ok = reg.VerifySig(ps.Replica, dg, ps.Sig)
		}
		if ok {
			valid++
			if valid >= need {
				return nil
			}
		}
	}
	if valid >= need {
		return nil // f = 0 and the origin alone endorses
	}
	return fmt.Errorf("dependency: %w: %d valid of %d needed", crypto.ErrCertTooSmall, valid, need)
}

// Dependency wire form: the group, the signature count, then one
// (replica, sig, chain index) record per signature. The index points into
// a chain table written ahead of the dependency; an index past the
// table's end — the retired single-group marker 2^32-1 among them — is
// refused, not converted. Inside a batch the table is the batch's
// (batch.go), so the many dependencies of one settlement wave attached
// across a batch's entries share one copy of each chain; a dependency
// stored on its own (recDep, the snapshot's dependency section) writes a
// table of its own first. Settlement waves are deterministic per delivery
// (postSettle enqueues groups in representative order over
// replica-deterministic settle results), so when replicas' wave
// boundaries align the signers of a certificate sign byte-identical
// chains and the table holds one chain for all of them — a lone group's
// chain of one included.

// compareChains orders chains by their digests, lexicographically, with a
// fast path for shared backing: the DepSigs one CREDITTAB's groups yield
// share its decoded chain, and so do the signatures a decoded chain
// table names.
func compareChains(a, b []types.Digest) int {
	if len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] {
		return 0
	}
	return slices.CompareFunc(a, b, func(x, y types.Digest) int { return bytes.Compare(x[:], y[:]) })
}

// chainTable is the distinct chains of a set of dependency certificates,
// sorted by compareChains: each chain has one place in it, so the table —
// and with it every encoding that carries one — has one canonical form,
// which decoders check by comparing neighbours.
type chainTable [][]types.Digest

// add inserts the certificate's chains that are not in the table yet.
func (t *chainTable) add(c DepCert) {
	for _, ps := range c.Sigs {
		if i, found := slices.BinarySearchFunc(*t, ps.Chain, compareChains); !found {
			*t = slices.Insert(*t, i, ps.Chain)
		}
	}
}

// index returns a signature's chain index. The chain must be in the
// table.
func (t chainTable) index(ps DepSig) uint32 {
	i, _ := slices.BinarySearchFunc(t, ps.Chain, compareChains)
	return uint32(i)
}

// size is the table's encoded size.
func (t chainTable) size() int {
	n := 4
	for _, ch := range t {
		n += wire.DigestListSize(len(ch))
	}
	return n
}

func (t chainTable) append(w *wire.Writer) {
	w.U32(uint32(len(t)))
	for _, ch := range t {
		wire.AppendDigestList(w, ch)
	}
}

// readTable is a chain table being decoded together with the dependencies
// that index into it; named records which entries a signature named, since
// the canonical encoding holds no others.
type readTable struct {
	chains chainTable
	named  []bool
}

func readChainTable(r *wire.Reader) (readTable, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return readTable{}, err
	}
	if !countFits(r, n, wire.DigestListSize(1)) {
		return readTable{}, fmt.Errorf("dependency: chain table of %d overruns its encoding", n)
	}
	t := readTable{chains: make(chainTable, n), named: make([]bool, n)}
	for i := range t.chains {
		chain, err := decodeDigestChain(r)
		if err != nil {
			return readTable{}, err
		}
		if len(chain) == 0 {
			return readTable{}, fmt.Errorf("dependency: empty chain in table")
		}
		if i > 0 && compareChains(t.chains[i-1], chain) >= 0 {
			return readTable{}, fmt.Errorf("dependency: chain table not sorted")
		}
		t.chains[i] = chain
	}
	return t, nil
}

// chain resolves a signature's chain index, marking the entry named.
func (t readTable) chain(ci uint32) ([]types.Digest, error) {
	if int(ci) >= len(t.chains) {
		return nil, fmt.Errorf("dependency: chain index %d out of table range %d", ci, len(t.chains))
	}
	t.named[ci] = true
	return t.chains[ci], nil
}

// finish checks that every table entry was named.
func (t readTable) finish() error {
	if slices.Contains(t.named, false) {
		return fmt.Errorf("dependency: chain table entry no signature names")
	}
	return nil
}

// maxDepSigs bounds decoded certificate sizes (mirrors crypto's
// maxCertSigs): no deployment here exceeds a few hundred replicas, and a
// hostile count must not drive a large pre-allocation.
const maxDepSigs = 4096

// maxCreditChain bounds decoded chain lengths (defense against hostile
// input); far above any settlement wave the credit signer accumulates.
const maxCreditChain = 1024

// dependencySize returns the encoded size of a dependency, its table
// excluded.
func dependencySize(d Dependency) int {
	n := 4 + len(d.Group)*types.PaymentWireSize + 4
	for _, ps := range d.Cert.Sigs {
		n += 4 + 4 + len(ps.Sig) + 4
	}
	return n
}

// appendDependency appends the dependency, its chains indexed into t.
func appendDependency(w *wire.Writer, d Dependency, t chainTable) {
	appendPaymentGroup(w, d.Group)
	w.U32(uint32(len(d.Cert.Sigs)))
	for _, ps := range d.Cert.Sigs {
		w.U32(uint32(ps.Replica))
		w.Chunk(ps.Sig)
		w.U32(t.index(ps))
	}
}

// decodeDependency parses one dependency whose chains index into t.
// Decoded signatures naming one table entry share its slice.
func decodeDependency(r *wire.Reader, t readTable) (Dependency, error) {
	var d Dependency
	group, err := decodePaymentGroup(r)
	if err != nil {
		return d, err
	}
	d.Group = group
	ns := r.U32()
	if err := r.Err(); err != nil {
		return d, err
	}
	if ns > maxDepSigs {
		return d, fmt.Errorf("dependency: cert of %d signatures exceeds cap", ns)
	}
	d.Cert.Sigs = make([]DepSig, 0, ns)
	for i := uint32(0); i < ns; i++ {
		id := types.ReplicaID(r.U32())
		sig := r.Chunk()
		ci := r.U32()
		if err := r.Err(); err != nil {
			return d, err
		}
		chain, err := t.chain(ci)
		if err != nil {
			return d, err
		}
		d.Cert.Sigs = append(d.Cert.Sigs, DepSig{Replica: id, Sig: sig, Chain: chain})
	}
	return d, nil
}

// dependencyRecordTable is the chain table a dependency stored on its own
// writes ahead of it.
func dependencyRecordTable(d Dependency) chainTable {
	var t chainTable
	t.add(d.Cert)
	return t
}

// dependencyRecordSize is the encoded size of a dependency stored on its
// own: its table, then the dependency.
func dependencyRecordSize(d Dependency) int {
	return dependencyRecordTable(d).size() + dependencySize(d)
}

func appendDependencyRecord(w *wire.Writer, d Dependency) {
	t := dependencyRecordTable(d)
	t.append(w)
	appendDependency(w, d, t)
}

// readDependencyRecord parses a dependency stored on its own.
func readDependencyRecord(r *wire.Reader) (Dependency, error) {
	t, err := readChainTable(r)
	if err != nil {
		return Dependency{}, err
	}
	d, err := decodeDependency(r, t)
	if err != nil {
		return Dependency{}, err
	}
	return d, t.finish()
}

// decodeDigestChain is the credit-side digest-list decoder: the shared
// wire layout with the credit chain-length cap applied.
func decodeDigestChain(r *wire.Reader) ([]types.Digest, error) {
	return wire.ReadDigestList[types.Digest](r, maxCreditChain)
}

// maxGroup bounds decoded group sizes (defense against hostile input).
const maxGroup = 1 << 16
