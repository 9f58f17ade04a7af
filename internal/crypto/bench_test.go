package crypto_test

import (
	"fmt"
	"testing"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/types"
)

func BenchmarkSign(b *testing.B) {
	kp := crypto.MustGenerateKeyPair()
	d := types.HashBytes([]byte("payment batch"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kp.Sign(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := crypto.MustGenerateKeyPair()
	d := types.HashBytes([]byte("payment batch"))
	sig, err := kp.Sign(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !crypto.Verify(kp.Public(), d, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkSimSign(b *testing.B) {
	kp := crypto.NewSimKeyPair(1, []byte("master"))
	d := types.HashBytes([]byte("payment batch"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kp.Sign(d); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCert builds an n-replica registry and a full certificate over d.
func benchCert(b *testing.B, n int, d types.Digest) (*crypto.Registry, crypto.Certificate) {
	b.Helper()
	reg := crypto.NewRegistry()
	var cert crypto.Certificate
	for i := types.ReplicaID(0); i < types.ReplicaID(n); i++ {
		kp := crypto.MustGenerateKeyPair()
		reg.Add(i, kp.Public())
		sig, err := kp.Sign(d)
		if err != nil {
			b.Fatal(err)
		}
		cert.Add(crypto.PartialSig{Replica: i, Sig: sig})
	}
	return reg, cert
}

func BenchmarkVerifyCertificate(b *testing.B) {
	// A 2f+1 certificate at f=1 (the Astro II commit certificate for a
	// minimal system).
	d := types.HashBytes([]byte("batch"))
	reg, cert := benchCert(b, 3, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := crypto.VerifyCertificate(reg, cert, d, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyCertificateParallel compares the serial checker against
// the verifier's fanned-out one on the paper's N=10 configuration (2f+1 = 7
// signatures per commit certificate). Memoization is disabled so both
// sides pay full ECDSA every iteration; the parallel side's speedup is
// bounded by min(GOMAXPROCS, 7).
func BenchmarkVerifyCertificateParallel(b *testing.B) {
	d := types.HashBytes([]byte("batch"))
	reg, full := benchCert(b, 10, d)
	cert := crypto.Certificate{Sigs: full.Sigs[:7]} // exactly 2f+1, as an origin commits
	const threshold = 7

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := crypto.VerifyCertificate(reg, cert, d, threshold, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		v := verifier.New(0, verifier.WithMemoSize(0))
		defer v.Close()
		done := make(chan bool, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.VerifyCertificateDetached(reg, cert, d, threshold, nil, func(ok bool) { done <- ok })
			if !<-done {
				b.Fatal("valid certificate rejected")
			}
		}
	})
	b.Run("parallel-memo", func(b *testing.B) {
		// With the memo on, a re-verified certificate costs hashes only —
		// the redelivered-commit case.
		v := verifier.New(0)
		defer v.Close()
		done := make(chan bool, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.VerifyCertificateDetached(reg, cert, d, threshold, nil, func(ok bool) { done <- ok })
			if !<-done {
				b.Fatal("valid certificate rejected")
			}
		}
	})
}

// BenchmarkVerifyBatchClientSigs measures the pre-endorsement client
// signature check of a 256-payment batch (paper §VI-A), serial vs pooled.
func BenchmarkVerifyBatchClientSigs(b *testing.B) {
	const batch = 256
	keys := crypto.NewClientKeys()
	sigs := make([]verifier.ClientSig, batch)
	for i := 0; i < batch; i++ {
		kp := crypto.MustGenerateKeyPair()
		keys.Add(types.ClientID(i), kp.Public())
		d := types.HashBytes([]byte(fmt.Sprintf("p%d", i)))
		sig, err := kp.Sign(d)
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = verifier.ClientSig{Client: types.ClientID(i), Digest: d, Sig: sig}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sigs {
				if !keys.VerifySig(s.Client, s.Digest, s.Sig) {
					b.Fatal("verify failed")
				}
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		v := verifier.New(0, verifier.WithMemoSize(0))
		defer v.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !v.VerifyClientBatch(keys, sigs).Wait() {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkMACTag(b *testing.B) {
	auth := crypto.NewLinkAuthenticator(1, []byte("master"))
	msg := make([]byte, 8192) // one 256-payment batch
	b.ResetTimer()
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		auth.Tag(2, msg)
	}
}
