package core

// Pipeline guards. The steady state is a goroutine-free, allocation-lean
// message pipeline: continuation commits, pinned stripe flows, lazy chain
// definitions. These tests are the regression fence — they ride plain
// `go test`, so `make check` fails if a per-commit spawn or a hot-codec
// allocation creeps back in.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"astro/internal/types"
)

// TestHotPathPackagesSpawnFree asserts "zero goroutines per settled
// payment" statically: the non-test sources of the packages a payment
// crosses contain no go statement at all. Everything runs on the fixed
// lane set — commits verify via detached continuations, settlement fans
// across pinned stripe flows — so any go statement here is a regression.
// tcpnet is the one package with goroutines of its own, all of them
// per-endpoint or per-connection and listed here by the method they run:
// a per-frame or per-peer goroutine (a writer, a flusher) is a regression
// too.
func TestHotPathPackagesSpawnFree(t *testing.T) {
	allowed := map[string]map[string]int{
		"../transport/tcpnet": {
			"acceptLoop": 1, // New, when listening
			"dispatch":   1, // New
			"readLoop":   2, // per accepted and per dialed connection
		},
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../brb", "../crypto/verifier", "../transport", "../transport/tcpnet"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no sources parsed; the guard would be vacuous", dir)
		}
		budget := allowed[dir]
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok && budget[sel.Sel.Name] > 0 {
						budget[sel.Sel.Name]--
						return true
					}
					t.Errorf("%s: go statement on the hot path", fset.Position(g.Pos()))
					return true
				})
			}
		}
		for name, left := range budget {
			if left != 0 {
				t.Errorf("%s: %d allowed `go …%s()` not found; update the allow-list", dir, left, name)
			}
		}
	}
}

// TestHotPathAllocBudget gates the per-operation allocation count of the
// codecs every settled payment crosses: the batch encoder/decoder (v2,
// warm chain table) and state application. Budgets carry headroom over
// the measured steady state; a fat regression (per-entry reallocations,
// a dropped size precomputation) blows through them.
func TestHotPathAllocBudget(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))}
	dep := Dependency{
		Group: []types.Payment{pay(9, 1, 3, 5)},
		Cert: DepCert{Sigs: []DepSig{
			{Replica: 0, Sig: make([]byte, 64)},
			{Replica: 2, Sig: make([]byte, 64), Chain: chain},
			{Replica: 3, Sig: make([]byte, 64), Chain: chain},
		}},
	}
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Payment: pay(1, types.Seq(i+1), 2, 1), Deps: []Dependency{dep}}
	}
	data := EncodeBatch(entries)

	// Encoder: one writer buffer (exact-capacity via batchSize) plus the
	// table slice. Anything near per-entry cost is a regression.
	if n := testing.AllocsPerRun(200, func() { _ = EncodeBatch(entries) }); n > 4 {
		t.Errorf("EncodeBatch: %.0f allocs per batch, budget 4", n)
	}
	// Decoder: entries, table, and per-dependency slices are irreducible;
	// the budget rules out per-signature chain copies (the table exists
	// so sigs share backing).
	if n := testing.AllocsPerRun(200, func() { _, _ = DecodeBatch(data) }); n > 48 {
		t.Errorf("DecodeBatch: %.0f allocs per batch, budget 48", n)
	}

	// State application: amortized xlog growth only.
	s := NewState(AstroII, genesis100, nil)
	seq := types.Seq(0)
	if n := testing.AllocsPerRun(500, func() {
		seq++
		s.ApplyEntry(BatchEntry{Payment: pay(1, seq, 2, 1)})
	}); n > 4 {
		t.Errorf("ApplyEntry: %.1f allocs per payment, budget 4", n)
	}
}
