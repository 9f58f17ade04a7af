// Package crypto provides the cryptographic substrate of Astro:
//
//   - ECDSA (NIST P-256) key pairs, signing and verification — the scheme
//     the paper uses for Astro II's signature-based broadcast and for
//     CREDIT messages;
//   - a replica key registry for verifying signatures and certificates;
//   - quorum certificates: sets of (replica, signature) pairs over a common
//     digest, verified against a threshold (2f+1 for BRB commits, f+1 for
//     dependency certificates);
//   - HMAC-SHA256 pairwise link authenticators — the MAC scheme Astro I
//     uses for channel authentication, and, keyed by ECDH between two
//     replicas' key pairs, the tag of Astro II's PREPARE.
//
// Only the Go standard library is used.
package crypto

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"astro/internal/types"
)

// KeyPair is a signing key. Two kinds exist:
//
//   - real ECDSA P-256 keys (GenerateKeyPair) — the scheme the paper uses
//     and the default everywhere in the library;
//   - simulated authenticators (NewSimKeyPair) — constant-time HMAC tags
//     with ECDSA-like wire size, used only by the experiment harness to
//     emulate the paper's per-replica CPUs on a single-core host (every
//     replica of the simulation shares one core, which would otherwise
//     make signature throughput, not protocol structure, the bottleneck).
//     Simulated signatures verify only against a Registry sharing the
//     same master secret.
type KeyPair struct {
	priv *ecdsa.PrivateKey

	simID     types.ReplicaID
	simMaster []byte
}

// simSigSize pads simulated tags to a typical ECDSA-P256 ASN.1 signature
// length so bandwidth accounting stays faithful.
const simSigSize = 71

// NewSimKeyPair creates a simulated signing identity bound to a shared
// master secret (see KeyPair).
func NewSimKeyPair(id types.ReplicaID, master []byte) *KeyPair {
	m := make([]byte, len(master))
	copy(m, master)
	return &KeyPair{simID: id, simMaster: m}
}

// simTag computes the simulated signature of digest by id under master.
func simTag(master []byte, id types.ReplicaID, digest types.Digest) []byte {
	mac := hmac.New(sha256.New, master)
	var hdr [4]byte
	hdr[0] = byte(id >> 24)
	hdr[1] = byte(id >> 16)
	hdr[2] = byte(id >> 8)
	hdr[3] = byte(id)
	mac.Write(hdr[:])
	mac.Write(digest[:])
	tag := mac.Sum(nil)
	out := make([]byte, simSigSize)
	copy(out, tag)
	copy(out[len(tag):], tag) // deterministic padding
	return out
}

// GenerateKeyPair creates a fresh P-256 key pair.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair for setup paths where key
// generation failure is unrecoverable (it can only fail if the system
// entropy source is broken).
func MustGenerateKeyPair() *KeyPair {
	kp, err := GenerateKeyPair()
	if err != nil {
		panic(err)
	}
	return kp
}

// DeriveKeyPair deterministically derives a P-256 key pair from a seed.
// Every party deriving from the same seed obtains the same key, which the
// demo deployment tools (cmd/astro-node) use to bootstrap a shared key
// registry from one secret. Production deployments should distribute
// independently generated keys instead.
//
// The scalar is computed directly from the seed stream (ecdsa.GenerateKey
// is intentionally non-deterministic even with a fixed reader).
func DeriveKeyPair(seed []byte) (*KeyPair, error) {
	curve := elliptic.P256()
	params := curve.Params()
	// 40 bytes of stream make the mod-(N-1) bias negligible (< 2^-64).
	buf := make([]byte, 40)
	if _, err := newHashStream(seed).Read(buf); err != nil {
		return nil, fmt.Errorf("derive key: %w", err)
	}
	d := new(big.Int).SetBytes(buf)
	d.Mod(d, new(big.Int).Sub(params.N, big.NewInt(1)))
	d.Add(d, big.NewInt(1)) // d in [1, N-1]
	priv := &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: curve},
		D:         d,
	}
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(d.Bytes())
	return &KeyPair{priv: priv}, nil
}

// hashStream is a deterministic byte stream: SHA-256(seed || counter).
type hashStream struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func newHashStream(seed []byte) *hashStream {
	s := make([]byte, len(seed))
	copy(s, seed)
	return &hashStream{seed: s}
}

func (h *hashStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(h.buf) == 0 {
			d := sha256.New()
			d.Write(h.seed)
			var c [8]byte
			for i := 0; i < 8; i++ {
				c[i] = byte(h.ctr >> (56 - 8*i))
			}
			d.Write(c[:])
			h.ctr++
			h.buf = d.Sum(nil)
		}
		k := copy(p[n:], h.buf)
		h.buf = h.buf[k:]
		n += k
	}
	return n, nil
}

// Public returns the public key, or nil for simulated keys.
func (k *KeyPair) Public() *ecdsa.PublicKey {
	if k.priv == nil {
		return nil
	}
	return &k.priv.PublicKey
}

// simKeyMagic prefixes serialized simulated public identities.
const simKeyMagic = "astro-sim-key:"

// PublicBytes returns the serialized public key (PKIX/DER for real keys,
// a tagged identity for simulated ones), suitable for distribution in the
// permissioned setup phase.
func (k *KeyPair) PublicBytes() []byte {
	if k.priv == nil {
		return []byte(fmt.Sprintf("%s%d", simKeyMagic, k.simID))
	}
	der, err := x509.MarshalPKIXPublicKey(k.Public())
	if err != nil {
		// Marshalling a valid in-memory P-256 key cannot fail.
		panic(err)
	}
	return der
}

// ParsePublicKey parses a key serialized by PublicBytes.
func ParsePublicKey(der []byte) (*ecdsa.PublicKey, error) {
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse public key: %w", err)
	}
	ec, ok := pub.(*ecdsa.PublicKey)
	if !ok {
		return nil, errors.New("parse public key: not an ECDSA key")
	}
	return ec, nil
}

// Sign signs the digest: an ASN.1 DER ECDSA signature for real keys, a
// padded HMAC tag for simulated ones.
func (k *KeyPair) Sign(digest types.Digest) ([]byte, error) {
	if k.priv == nil {
		return simTag(k.simMaster, k.simID, digest), nil
	}
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	return sig, nil
}

// Verify reports whether sig is a valid signature over digest by pub.
func Verify(pub *ecdsa.PublicKey, digest types.Digest, sig []byte) bool {
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}

// Registry maps replica identities to their public keys. The registry is
// populated during system setup (Astro is permissioned: replica key pairs
// are distributed in advance) and is immutable afterwards except through
// reconfiguration, which adds keys for joining replicas.
//
// A registry may additionally hold a simulation master secret (EnableSim),
// against which simulated signatures verify; see KeyPair.
type Registry struct {
	mu        sync.RWMutex
	keys      map[types.ReplicaID]*ecdsa.PublicKey
	sim       map[types.ReplicaID]bool
	simMaster []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		keys: make(map[types.ReplicaID]*ecdsa.PublicKey),
		sim:  make(map[types.ReplicaID]bool),
	}
}

// EnableSim installs the shared master secret for simulated signatures.
func (r *Registry) EnableSim(master []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simMaster = make([]byte, len(master))
	copy(r.simMaster, master)
}

// Add registers the public key for a replica. Re-registering a replica
// overwrites its key; reconfiguration uses this when a replica re-joins.
func (r *Registry) Add(id types.ReplicaID, pub *ecdsa.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[id] = pub
	delete(r.sim, id)
}

// AddSim registers a replica as using simulated signatures (EnableSim
// must have installed the master secret).
func (r *Registry) AddSim(id types.ReplicaID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sim[id] = true
	delete(r.keys, id)
}

// AddSerialized registers a key serialized by KeyPair.PublicBytes,
// handling both kinds.
func (r *Registry) AddSerialized(id types.ReplicaID, pub []byte) error {
	if len(pub) > len(simKeyMagic) && string(pub[:len(simKeyMagic)]) == simKeyMagic {
		r.AddSim(id)
		return nil
	}
	parsed, err := ParsePublicKey(pub)
	if err != nil {
		return err
	}
	r.Add(id, parsed)
	return nil
}

// Lookup returns the ECDSA public key for a replica, or nil if the
// replica is unknown or uses simulated signatures.
func (r *Registry) Lookup(id types.ReplicaID) *ecdsa.PublicKey {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keys[id]
}

// Known reports whether the replica has any registered key.
func (r *Registry) Known(id types.ReplicaID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keys[id] != nil || r.sim[id]
}

// VerifySig verifies a signature by the given replica over digest,
// dispatching on the replica's key kind. Unknown replicas never verify.
func (r *Registry) VerifySig(id types.ReplicaID, digest types.Digest, sig []byte) bool {
	r.mu.RLock()
	pub := r.keys[id]
	isSim := r.sim[id]
	master := r.simMaster
	r.mu.RUnlock()
	switch {
	case pub != nil:
		return Verify(pub, digest, sig)
	case isSim && master != nil:
		return hmac.Equal(sig, simTag(master, id, digest))
	default:
		return false
	}
}

// simulated reports whether the replica is registered with a simulated key.
func (r *Registry) simulated(id types.ReplicaID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sim[id]
}

// Len returns the number of registered replicas.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys) + len(r.sim)
}

// PartialSig is one replica's signature over a shared digest.
type PartialSig struct {
	Replica types.ReplicaID
	Sig     []byte
}

// Certificate is a set of partial signatures over a common digest. A
// certificate with 2f+1 signatures proves Byzantine-quorum endorsement;
// one with f+1 signatures proves endorsement by at least one correct
// replica (the threshold for Astro II dependency certificates).
type Certificate struct {
	Sigs []PartialSig
}

// Add appends a partial signature, keeping signatures sorted by replica ID
// for a canonical encoding. Adding a duplicate replica is a no-op.
func (c *Certificate) Add(ps PartialSig) {
	i := sort.Search(len(c.Sigs), func(i int) bool { return c.Sigs[i].Replica >= ps.Replica })
	if i < len(c.Sigs) && c.Sigs[i].Replica == ps.Replica {
		return
	}
	c.Sigs = append(c.Sigs, PartialSig{})
	copy(c.Sigs[i+1:], c.Sigs[i:])
	c.Sigs[i] = ps
}

// Len returns the number of distinct signers.
func (c *Certificate) Len() int { return len(c.Sigs) }

// Errors returned by VerifyCertificate.
var (
	ErrCertTooSmall   = errors.New("certificate: below threshold")
	ErrCertBadSig     = errors.New("certificate: invalid signature")
	ErrCertUnknownKey = errors.New("certificate: unknown signer")
	ErrCertDuplicate  = errors.New("certificate: duplicate signer")
)

// VerifyCertificate checks that cert carries at least threshold valid
// signatures over digest from distinct replicas registered in reg and,
// if membership is non-nil, that every signer satisfies it (used to
// restrict certificates to the replicas of a specific shard).
func VerifyCertificate(reg *Registry, cert Certificate, digest types.Digest, threshold int, membership func(types.ReplicaID) bool) error {
	if len(cert.Sigs) < threshold {
		return fmt.Errorf("%w: have %d, need %d", ErrCertTooSmall, len(cert.Sigs), threshold)
	}
	seen := make(map[types.ReplicaID]struct{}, len(cert.Sigs))
	valid := 0
	for _, ps := range cert.Sigs {
		if _, dup := seen[ps.Replica]; dup {
			return fmt.Errorf("%w: replica %d", ErrCertDuplicate, ps.Replica)
		}
		seen[ps.Replica] = struct{}{}
		if membership != nil && !membership(ps.Replica) {
			continue
		}
		if !reg.Known(ps.Replica) {
			return fmt.Errorf("%w: replica %d", ErrCertUnknownKey, ps.Replica)
		}
		if !reg.VerifySig(ps.Replica, digest, ps.Sig) {
			return fmt.Errorf("%w: replica %d", ErrCertBadSig, ps.Replica)
		}
		valid++
	}
	if valid < threshold {
		return fmt.Errorf("%w: %d valid of %d needed", ErrCertTooSmall, valid, threshold)
	}
	return nil
}

// LinkAuthenticator derives and applies pairwise HMAC-SHA256 keys for
// channel authentication between replicas. Its link keys come from one of
// two sources:
//
//   - a shared master secret (NewLinkAuthenticator): every holder of the
//     master derives every link key, emulating the pre-distributed
//     pairwise keys of a permissioned deployment — the MAC scheme of
//     Astro I, which trusts no third party to stay out of a link;
//   - the replicas' registered key pairs (NewKeyedLinkAuthenticator):
//     static P-256 Diffie-Hellman between the two ends, so only they know
//     the link key and a tag is as hard to forge as either end's
//     signature.
type LinkAuthenticator struct {
	self   types.ReplicaID
	master []byte

	keys *KeyPair  // keyed mode: self's key pair
	reg  *Registry // keyed mode: the peers' public keys

	mu    sync.Mutex
	priv  *ecdh.PrivateKey // keyed mode: keys in ECDH form, converted once
	cache map[types.ReplicaID]linkKeyEntry
}

// linkKeyEntry is a cached link key with the peer public key it was
// derived from; a keyed authenticator re-derives when the registry's key
// for the peer changes (a re-joining replica).
type linkKeyEntry struct {
	pub *ecdsa.PublicKey
	key []byte
}

// TagSize is the length of a link MAC tag in bytes.
const TagSize = sha256.Size

// NewLinkAuthenticator creates an authenticator for replica self using the
// shared master secret.
func NewLinkAuthenticator(self types.ReplicaID, master []byte) *LinkAuthenticator {
	m := make([]byte, len(master))
	copy(m, master)
	return &LinkAuthenticator{
		self:   self,
		master: m,
		cache:  make(map[types.ReplicaID]linkKeyEntry),
	}
}

// NewKeyedLinkAuthenticator creates an authenticator for replica self
// whose link key with a peer is derived from ECDH between keys and the
// peer's public key in reg. A link to a peer without a registered key of
// the same kind has no key: its tags never verify. Simulated key pairs
// (NewSimKeyPair) derive link keys from their simulation master instead,
// so every holder of that master knows them — as it can also make their
// simulated signatures.
func NewKeyedLinkAuthenticator(self types.ReplicaID, keys *KeyPair, reg *Registry) *LinkAuthenticator {
	return &LinkAuthenticator{
		self:  self,
		keys:  keys,
		reg:   reg,
		cache: make(map[types.ReplicaID]linkKeyEntry),
	}
}

// linkPair encodes the unordered pair {self, peer} as min || max.
func linkPair(self, peer types.ReplicaID) []byte {
	lo, hi := self, peer
	if lo > hi {
		lo, hi = hi, lo
	}
	return []byte{
		byte(lo >> 24), byte(lo >> 16), byte(lo >> 8), byte(lo),
		byte(hi >> 24), byte(hi >> 16), byte(hi >> 8), byte(hi),
	}
}

// linkKey returns the symmetric key for the link between self and peer,
// or nil when a keyed authenticator has none. The key depends only on the
// unordered pair, so both ends derive the same key: K = HMAC(secret,
// min || max), where secret is the master, the simulation master, or the
// ECDH shared secret of the two key pairs.
func (a *LinkAuthenticator) linkKey(peer types.ReplicaID) []byte {
	var pub *ecdsa.PublicKey
	if a.reg != nil {
		pub = a.reg.Lookup(peer)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.cache[peer]; ok && e.pub == pub {
		return e.key
	}
	secret := a.master
	if a.keys != nil {
		secret = a.keyedSecret(peer, pub)
		if secret == nil {
			return nil
		}
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write(linkPair(a.self, peer))
	k := mac.Sum(nil)
	a.cache[peer] = linkKeyEntry{pub: pub, key: k}
	return k
}

// keyedSecret is the secret a keyed authenticator shares with peer, whose
// registered ECDSA key is pub (nil for a simulated or unknown peer).
func (a *LinkAuthenticator) keyedSecret(peer types.ReplicaID, pub *ecdsa.PublicKey) []byte {
	if a.keys.priv == nil {
		if !a.reg.simulated(peer) {
			return nil
		}
		mac := hmac.New(sha256.New, a.keys.simMaster)
		mac.Write([]byte("astro-sim-link"))
		return mac.Sum(nil)
	}
	if pub == nil {
		return nil
	}
	if a.priv == nil {
		priv, err := a.keys.priv.ECDH()
		if err != nil {
			return nil
		}
		a.priv = priv
	}
	pk, err := pub.ECDH()
	if err != nil {
		return nil
	}
	shared, err := a.priv.ECDH(pk)
	if err != nil {
		return nil
	}
	return shared
}

// Derive computes and caches the link key to peer ahead of its first use:
// a keyed link costs one ECDH, which a caller can take off the path of
// its first message.
func (a *LinkAuthenticator) Derive(peer types.ReplicaID) { a.linkKey(peer) }

// Tag computes the MAC tag for a message sent on the link to peer. It is
// nil when a keyed authenticator has no key for the link.
func (a *LinkAuthenticator) Tag(peer types.ReplicaID, msg []byte) []byte {
	k := a.linkKey(peer)
	if k == nil {
		return nil
	}
	mac := hmac.New(sha256.New, k)
	mac.Write(msg)
	return mac.Sum(nil)
}

// VerifyTag reports whether tag authenticates msg on the link to peer.
func (a *LinkAuthenticator) VerifyTag(peer types.ReplicaID, msg, tag []byte) bool {
	want := a.Tag(peer, msg)
	return want != nil && hmac.Equal(want, tag)
}
