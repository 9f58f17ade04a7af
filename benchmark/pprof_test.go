package main

import (
	"math"
	"os"
	"testing"
)

// TestFoldRaw folds a canned `go tool pprof -raw` listing: ten samples
// whose innermost astro/internal frame is, in turn, brb (under a types
// helper and the standard library's SHA-256), crypto (inlined under its
// verifier caller), none at all, transport (on the generator's stack),
// wal and wire.
func TestFoldRaw(t *testing.T) {
	f, err := os.Open("testdata/stacks.raw")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"brb": 0.3, "crypto": 0.2, "runtime": 0.1, "transport": 0.1, "wal": 0.2, "wire": 0.1,
		"core": 0, "sched": 0, "kv": 0,
	}
	var sum float64
	for _, layer := range layerNames {
		if math.Abs(got.shares[layer]-want[layer]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got.shares[layer], want[layer])
		}
		sum += got.shares[layer]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if math.Abs(got.loadgenShare-0.1) > 1e-9 {
		t.Errorf("loadgen share = %v, want 0.1", got.loadgenShare)
	}
	if math.Abs(got.sampledSeconds-0.1) > 1e-9 {
		t.Errorf("sampled %v s, want 0.1", got.sampledSeconds)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"astro/internal/crypto/verifier.(*Verifier).VerifyBatch.func1": "crypto",
		"astro/internal/transport/memnet.(*node).dispatch":             "transport",
		"astro/internal/transport.(*Mux).Send":                         "transport",
		"astro/internal/core.(*State).ApplyEntry":                      "core",
		"astro/internal/kv.(*Store).Get":                               "kv",
		"astro/internal/types.HashPayment":                             "",
		"astro/internal/sim.AuditExports":                              "",
		"astro.New":                                                    "",
		"crypto/ecdsa.VerifyASN1":                                      "",
		"astro/internal/crypto/verifier.(*ChainSigner[...]).drain":     "crypto",
		"astro/internal/core.foo[astro/internal/types.Digest]":         "core",
		"main.(*traceEndpoint).Send":                                   "",
		"astro/internal/schedx.Foo":                                    "",
		"astro/internal/sched.(*Runtime).run":                          "sched",
		"astro/internal/wal.(*Writer).Append.func1":                    "wal",
		"astro/internal/brb.(*Signed).onCommit":                        "brb",
		"astro/internal/wire.(*Reader).U32":                            "wire",
		"astro/internal/reconfig.(*Manager).onMessage":                 "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) extrapolates: [0.75, 1.5, 2.25].
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}
