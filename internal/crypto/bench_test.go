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
