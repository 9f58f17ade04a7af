package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// CPU-profile attribution with the standard toolchain only: `go tool
// pprof -raw` prints samples as lists of location ids, leaf first, and a
// table resolving each location to its function (several, when calls were
// inlined). foldRaw charges every sample to the layer of the innermost
// astro/internal/<pkg> frame on its stack, so that the standard library's
// ECDSA, SHA-256 and syscalls roll up to whichever layer called them.

// layerNames are the budget's rows, in print order; runtime takes every
// sample with no layer frame on its stack (scheduler, GC, the generator).
var layerNames = []string{"brb", "core", "crypto", "sched", "transport", "wal", "kv", "wire", "runtime"}

const internalPrefix = "astro/internal/"

// layerOf maps a function name to its layer, or "" for a function that
// belongs to none: anything outside astro/internal, and the helper
// packages (types, metrics, shard, ...) whose cost belongs to the caller.
func layerOf(function string) string {
	rest, ok := strings.CutPrefix(function, internalPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, "/") // "crypto/verifier.(*V).F" -> "crypto"
	pkg, _, _ = strings.Cut(pkg, ".")   // "core.(*Replica).f" -> "core"
	for _, l := range layerNames[:len(layerNames)-1] {
		if pkg == l {
			return l
		}
	}
	return ""
}

// foldedProfile is a CPU profile folded to layers.
type foldedProfile struct {
	shares         map[string]float64 // by layer; sums to 1
	loadgenShare   float64            // samples with a generator frame on the stack
	sampledSeconds float64
}

// loadgenFrame marks the generator's own goroutines in a stack.
const loadgenFrame = "main.(*generator)."

func foldRaw(r io.Reader) (*foldedProfile, error) {
	type sample struct {
		nanos int64
		locs  []int
	}
	var samples []sample
	funcs := make(map[int][]string) // location id -> functions, innermost first
	section, lastLoc := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		switch section {
		case "Samples":
			head, tail, ok := strings.Cut(line, ":")
			if !ok {
				continue // the column header
			}
			hf := strings.Fields(head)
			if len(hf) != 2 {
				continue
			}
			nanos, err := strconv.ParseInt(hf[1], 10, 64)
			if err != nil {
				continue
			}
			s := sample{nanos: nanos}
			for _, f := range strings.Fields(tail) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw: bad location id %q", f)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			// "  12: 0x46c6c8 M=1 fn file:line:col s=32" opens a location;
			// "         fn file:line:col s=27" adds an inlined caller.
			if id, err := strconv.Atoi(strings.TrimSuffix(f[0], ":")); err == nil && strings.HasSuffix(f[0], ":") {
				lastLoc = id
				f = f[1:]
				for len(f) > 0 && (strings.HasPrefix(f[0], "0x") || strings.HasPrefix(f[0], "M=")) {
					f = f[1:]
				}
			}
			if len(f) >= 3 && strings.HasPrefix(f[len(f)-1], "s=") {
				funcs[lastLoc] = append(funcs[lastLoc], strings.Join(f[:len(f)-2], " "))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	byLayer := make(map[string]int64)
	var total, loadgen int64
	for _, s := range samples {
		layer, isLoadgen := "", false
		for _, loc := range s.locs {
			for _, fn := range funcs[loc] {
				if layer == "" {
					layer = layerOf(fn)
				}
				if strings.HasPrefix(fn, loadgenFrame) {
					isLoadgen = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		byLayer[layer] += s.nanos
		total += s.nanos
		if isLoadgen {
			loadgen += s.nanos
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	out := &foldedProfile{
		shares:         make(map[string]float64, len(layerNames)),
		loadgenShare:   float64(loadgen) / float64(total),
		sampledSeconds: float64(total) / 1e9,
	}
	for _, l := range layerNames {
		out.shares[l] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}

// foldProfile shells out to `go tool pprof -raw`, as the Makefile's
// profile target does, and folds its output.
func foldProfile(path string) (*foldedProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	// pprof creates $PPROF_TMPDIR (default $HOME/pprof) on start-up; keep
	// that inside the checkout like every other file the benchmark writes.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w: %s", path, err, stderr.String())
	}
	return foldRaw(bytes.NewReader(raw))
}
