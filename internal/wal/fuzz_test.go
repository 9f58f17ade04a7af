package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanFrames feeds arbitrary bytes to the record decoder. Invariants:
// no panic, the valid prefix never exceeds the input, records re-encode to
// exactly the valid prefix, and a second scan of the valid prefix yields
// the same records (replay determinism after torn-tail repair).
func FuzzScanFrames(f *testing.F) {
	var seed []byte
	seed = AppendFrame(seed, 1, []byte("endorse"))
	seed = AppendFrame(seed, 2, bytes.Repeat([]byte{0x5a}, 64))
	seed = AppendFrame(seed, 3, nil)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                            // torn tail
	f.Add(append([]byte(nil), 0, 0, 0, 0))               // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5}) // oversized length
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []rec
		valid, err := ScanFrames(data, func(k byte, p []byte) error {
			recs = append(recs, rec{k, append([]byte(nil), p...)})
			return nil
		})
		if err != nil {
			t.Fatalf("callback never errors: %v", err)
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		var reenc []byte
		for _, r := range recs {
			reenc = AppendFrame(reenc, r.kind, r.payload)
		}
		if !bytes.Equal(reenc, data[:valid]) {
			t.Fatalf("records do not re-encode to the valid prefix")
		}
		var again []rec
		valid2, _ := ScanFrames(data[:valid], func(k byte, p []byte) error {
			again = append(again, rec{k, append([]byte(nil), p...)})
			return nil
		})
		if valid2 != valid || len(again) != len(recs) {
			t.Fatalf("rescan of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(again), len(recs), valid2, valid)
		}
	})
}

// FuzzFileLoad round-trips arbitrary bytes through a FileBackend: Load
// must not panic, must repair the file to its valid prefix, and a second
// Load must replay exactly the same records.
func FuzzFileLoad(f *testing.F) {
	var seed []byte
	seed = AppendFrame(seed, 1, []byte("payload"))
	seed = AppendFrame(seed, 2, nil)
	f.Add(seed)
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var first []rec
		if err := b.Load(nil, func(k byte, p []byte) error {
			first = append(first, rec{k, append([]byte(nil), p...)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer b2.Close()
		var second []rec
		if err := b2.Load(nil, func(k byte, p []byte) error {
			second = append(second, rec{k, append([]byte(nil), p...)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(first) != len(second) {
			t.Fatalf("repair not idempotent: %d then %d records", len(first), len(second))
		}
		for i := range first {
			if first[i].kind != second[i].kind || !bytes.Equal(first[i].payload, second[i].payload) {
				t.Fatalf("record %d diverged across reload", i)
			}
		}
	})
}
