package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wal"
	"astro/internal/wire"
)

// testImage builds a populated replicaImage exercising every section of
// the snapshot encoding: pending broadcasts, accounts with queues and
// used deps, endorsement memory, and representative dependencies with
// multi-signature certificates.
func testImage() replicaImage {
	pay := func(s types.ClientID, seq types.Seq, b types.ClientID, x types.Amount) types.Payment {
		return types.Payment{Spender: s, Seq: seq, Beneficiary: b, Amount: x}
	}
	dep := Dependency{
		Group: []types.Payment{pay(1, 3, 7, 25), pay(1, 3, 9, 5)},
		Cert: DepCert{Sigs: []DepSig{
			{Replica: 0, Sig: []byte("sig-zero")},
			{Replica: 2, Sig: []byte("sig-two"), Chain: []types.Digest{types.HashBytes([]byte("prev"))}},
		}},
	}
	return replicaImage{
		nextSlot: 42,
		pending: map[uint64][]byte{
			40: EncodeBatch([]BatchEntry{{Payment: pay(5, 1, 6, 10)}}),
			41: EncodeBatch([]BatchEntry{{Payment: pay(5, 2, 6, 1), Deps: []Dependency{dep}}}),
		},
		accounts: []AccountExport{
			{
				Client:  1,
				Balance: 70,
				XLog:    []types.Payment{pay(1, 1, 2, 30)},
				Queue:   []BatchEntry{{Payment: pay(1, 2, 3, 10), Sig: []byte("cs")}},
				UsedDeps: []types.PaymentID{
					{Spender: 9, Seq: 1}, {Spender: 9, Seq: 4},
				},
			},
			{Client: 2, Balance: 130, Stuck: true},
		},
		endorsed: endorseWindow{
			1: {pay(1, 2, 3, 10), pay(1, 4, 2, 1)},
			5: {pay(5, 1, 6, 10)},
		},
		repDeps: map[types.ClientID][]Dependency{7: {dep}},
	}
}

func TestReplicaImageRoundTrip(t *testing.T) {
	img := testImage()
	enc := encodeReplicaImage(img)
	got, err := decodeReplicaImage(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.nextSlot != img.nextSlot {
		t.Errorf("nextSlot = %d, want %d", got.nextSlot, img.nextSlot)
	}
	if len(got.pending) != len(img.pending) {
		t.Fatalf("pending = %d slots, want %d", len(got.pending), len(img.pending))
	}
	for s, p := range img.pending {
		if !bytes.Equal(got.pending[s], p) {
			t.Errorf("pending[%d] mismatch", s)
		}
	}
	if !reflect.DeepEqual(got.accounts, img.accounts) {
		t.Errorf("accounts mismatch:\n got %+v\nwant %+v", got.accounts, img.accounts)
	}
	if !reflect.DeepEqual(got.endorsed, img.endorsed) {
		t.Errorf("endorsed mismatch")
	}
	if !reflect.DeepEqual(got.repDeps, img.repDeps) {
		t.Errorf("repDeps mismatch:\n got %+v\nwant %+v", got.repDeps, img.repDeps)
	}

	// Re-encoding the decoded image must be byte-identical: the encoding
	// is canonical (sorted slots/clients), so snapshot bytes are stable
	// across save/load cycles.
	if enc2 := encodeReplicaImage(got); !bytes.Equal(enc, enc2) {
		t.Errorf("re-encode not canonical: %d vs %d bytes", len(enc), len(enc2))
	}
}

func TestReplicaImageDecodeRejectsCorruption(t *testing.T) {
	enc := encodeReplicaImage(testImage())
	if _, err := decodeReplicaImage(nil); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := decodeReplicaImage(enc[:len(enc)-1]); err == nil {
		t.Error("truncated image accepted")
	}
	if _, err := decodeReplicaImage(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := bytes.Clone(enc)
	bad[0] = snapshotVersionManifest + 1
	if _, err := decodeReplicaImage(bad); err == nil {
		t.Error("wrong version accepted")
	}
}

// TestRetiredFormatsRefused: images and records written before the batch
// and dependency encodings became one are refused loudly — a snapshot of
// the previous full or manifest version and a version-1 account record
// each fail with an error naming the version, and a recSettle holding a
// batch in the retired entry-count-first form fails replay instead of
// being read as some other batch.
func TestRetiredFormatsRefused(t *testing.T) {
	img := testImage()
	manifest := testImage()
	manifest.manifest = true
	manifest.accounts = nil
	for _, c := range []struct {
		data    []byte
		version byte
	}{
		{encodeReplicaImage(img), 3},
		{encodeReplicaImage(manifest), 4},
	} {
		old := bytes.Clone(c.data)
		old[0] = c.version
		_, err := decodeReplicaImage(old)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", c.version)) {
			t.Errorf("version-%d snapshot: err = %v, want a refusal naming the version", c.version, err)
		}
	}
	rec := encodeAccountExport(img.accounts[0])
	rec[0] = 1
	if _, err := decodeAccountExport(rec); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 account record: err = %v, want a refusal naming the version", err)
	}

	// The retired form: entry count, then (payment, signature, deps) per
	// entry, with no chain table ahead of it.
	w := wire.NewWriter(64)
	w.U32(1)
	w.AppendFunc(types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 10}.AppendBinary)
	w.Chunk(nil)
	w.U32(0)
	c := newCluster(t, AstroII, 4, genesis100)
	r := c.replicas[0]
	if err := r.replayRecord(recSettle, w.Bytes()); err == nil {
		t.Fatal("recSettle in the retired batch form replayed")
	}
	if got := r.state.NextSeq(1); got != 1 {
		t.Fatalf("a refused recSettle settled payments: next seq of client 1 = %d", got)
	}
}

// walCluster builds a cluster whose replicas each write to their own
// file-backed WAL under dir, with aggressive snapshot cadence so tests
// exercise compaction too.
func walCluster(t *testing.T, version Version, n int, dir string) *cluster {
	t.Helper()
	c := newCluster(t, version, n, genesis100, func(cfg *Config) {
		be, err := wal.Open(filepath.Join(dir, "rep"+strconv.Itoa(int(cfg.Self))))
		if err != nil {
			t.Fatalf("wal open: %v", err)
		}
		cfg.WAL = be
		cfg.WALSnapshotEvery = 3
	})
	// A live replica's WAL writer keeps appending and compacting (a
	// snapshot is a temp file renamed into place) after the test body
	// returns. Abort every writer before dir's TempDir cleanup runs, or
	// RemoveAll races a new file into a directory it is emptying.
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Abandon()
		}
	})
	return c
}

// restart tears down replica id as if the process died (memnet crash +
// in-process abort), then rebuilds it over the same data directory and
// a fresh mux on the same endpoint, and anti-entropies from donor.
func (c *cluster) restart(id types.ReplicaID, dir string, donor *Replica) *Replica {
	c.t.Helper()
	node := transport.ReplicaNode(id)
	c.net.Crash(node)
	c.replicas[id].Abandon()

	c.net.Restore(node)
	cfg := c.cfgs[id]
	be, err := wal.OpenAuto(filepath.Join(dir, "rep"+strconv.Itoa(int(id))), cfg.StateCacheAccounts > 0)
	if err != nil {
		c.t.Fatalf("wal reopen: %v", err)
	}
	cfg.Mux = transport.NewMux(c.net.Node(node))
	cfg.WAL = be
	r, err := NewReplica(cfg)
	if err != nil {
		c.t.Fatalf("restart replica %d: %v", id, err)
	}
	c.replicas[id] = r
	if donor != nil {
		if err := r.MergeFullSnapshot(donor.FullSnapshot()); err != nil {
			c.t.Fatalf("merge snapshot: %v", err)
		}
	}
	return r
}

// waitXLogsMatch waits until got's exclusive logs for the given clients
// match want's.
func waitXLogsMatch(t *testing.T, want, got *Replica, clients []types.ClientID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, cl := range clients {
			if !reflect.DeepEqual(want.XLogSnapshot(cl), got.XLogSnapshot(cl)) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, cl := range clients {
				w, g := want.XLogSnapshot(cl), got.XLogSnapshot(cl)
				if !reflect.DeepEqual(w, g) {
					t.Errorf("client %d: xlog %v, want %v", cl, g, w)
				}
			}
			t.Fatal("xlogs never converged")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaCloseRecover is the single-node durability round trip: a
// clean Close must leave a WAL+snapshot from which a new replica rebuilds
// the exact settled state, with no peers to catch up from.
func TestReplicaCloseRecover(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		dir := t.TempDir()
		c := walCluster(t, v, 1, dir)
		alice := c.client(1)
		for i := 0; i < 5; i++ {
			c.payAndWait(alice, 2, 10)
		}
		c.waitSettledEverywhere(5, 5*time.Second)

		// CREDIT signatures arrive asynchronously after settlement; wait
		// for client 2's credits to materialize (and hit the WAL) before
		// cutting the network, so recovery has a deterministic target.
		deadline := time.Now().Add(5 * time.Second)
		for c.replicas[0].Balance(2) != 150 {
			if time.Now().After(deadline) {
				t.Fatalf("client 2's credits never materialized: balance %d, want 150",
					c.replicas[0].Balance(2))
			}
			time.Sleep(2 * time.Millisecond)
		}

		c.net.Crash(transport.ReplicaNode(0))
		c.replicas[0].Close()

		r := c.restart(0, dir, nil)
		if bal := r.Balance(1); bal != 50 {
			t.Errorf("balance(1) = %d, want 50", bal)
		}
		if bal := r.Balance(2); bal != 150 {
			t.Errorf("balance(2) = %d, want 150", bal)
		}
		if log := r.XLogSnapshot(1); len(log) != 5 {
			t.Errorf("xlog(1) = %d entries, want 5", len(log))
		}
		if seq := r.NextSeq(1); seq != 6 {
			t.Errorf("nextSeq(1) = %d, want 6", seq)
		}
		if err := r.WALErr(); err != nil {
			t.Errorf("wal error after recovery: %v", err)
		}

		// The recovered replica must still be live: sync the client (its
		// confirmation channel died with the old replica) and pay again.
		if _, err := alice.SyncSeq(2 * time.Second); err != nil {
			t.Fatalf("sync seq: %v", err)
		}
		c.payAndWait(alice, 2, 10)
		if bal := r.Balance(1); bal != 40 {
			t.Errorf("balance(1) after restart payment = %d, want 40", bal)
		}
	})
}

// TestReplicaKillRecover kills a replica without any flush (kill -9:
// Abandon drops buffered WAL work on the floor), restarts it from disk,
// and anti-entropies the tail it lost from a healthy peer. Settled state
// must converge, credit certificates held by the victim as a
// representative must survive and remain spendable, and the restarted
// replica must settle new payments.
func TestReplicaKillRecover(t *testing.T) {
	dir := t.TempDir()
	c := walCluster(t, AstroII, 4, dir)
	all := []types.ClientID{1, 2, 3, 100}
	// Replica 3 represents client 3, which only receives in phase one:
	// its balance at the victim is pure credit-certificate state, the
	// part of recovery the merge cannot reconstruct (representative-local
	// dependencies are never adopted from peers).
	victim := types.ReplicaID(3)
	for i := 0; i < 4; i++ {
		c.payAndWait(c.client(1), 100, 1)
		c.payAndWait(c.client(2), 100, 1)
	}
	c.payAndWait(c.client(1), 3, 20)
	c.payAndWait(c.client(1), 3, 20)
	c.waitSettledEverywhere(10, 10*time.Second)

	// Wait for the victim to accumulate client 3's credits (CREDIT
	// signatures arrive asynchronously after settlement), then force the
	// WAL tail to disk — kill -9 legitimately loses unsynced appends, and
	// this test is about what a synced log must preserve.
	deadline := time.Now().Add(5 * time.Second)
	for c.replicas[victim].Balance(3) != 140 {
		if time.Now().After(deadline) {
			t.Fatalf("victim never saw client 3's credits: balance %d, want 140",
				c.replicas[victim].Balance(3))
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.replicas[victim].wal.Barrier()

	// Kill, then keep settling payments the victim misses entirely.
	c.net.Crash(transport.ReplicaNode(victim))
	c.replicas[victim].Abandon()
	for i := 0; i < 3; i++ {
		c.payAndWait(c.clients[1], 100, 1)
		c.payAndWait(c.clients[2], 100, 1)
	}

	// Restart from its own WAL, then merge the missed suffix from a
	// healthy peer (the transport-level equivalent lives in reconfig's
	// state fetch; core tests call the merge directly).
	r := c.restart(victim, dir, c.replicas[0])
	waitXLogsMatch(t, c.replicas[0], r, all, 5*time.Second)
	// Settled balances are a deterministic function of the delivered
	// batches, so once xlogs converge they must agree replica-for-replica
	// (Balance() itself differs by design: only the representative counts
	// unattached credits).
	for _, cl := range all {
		if want, got := c.replicas[0].state.Balance(cl), r.state.Balance(cl); want != got {
			t.Errorf("client %d: settled balance %d, want %d", cl, got, want)
		}
	}
	// The victim's representative-side credit certificates for client 3
	// came back from its own WAL.
	if got := r.Balance(3); got != 140 {
		t.Errorf("client 3 spendable balance after recovery = %d, want 140", got)
	}
	if cnt := r.Counters(); cnt.Conflicts != 0 {
		t.Errorf("recovery produced %d conflicts", cnt.Conflicts)
	}

	// Liveness and credit validity: client 3 spends more than its settled
	// balance, so the payment only settles if the recovered certificates
	// verify at every replica.
	cl3 := c.client(3)
	if _, err := cl3.SyncSeq(2 * time.Second); err != nil {
		t.Fatalf("sync seq: %v", err)
	}
	c.payAndWait(cl3, 100, 130)
	deadline = time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, rep := range c.replicas {
			if len(rep.XLogSnapshot(3)) != 1 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			lens := make([]int, len(c.replicas))
			for i, rep := range c.replicas {
				lens[i] = len(rep.XLogSnapshot(3))
			}
			t.Fatalf("post-restart credit spend never settled everywhere: xlog lens %v", lens)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, rep := range c.replicas {
		if got := rep.state.Balance(3); got != 10 {
			t.Errorf("replica %d: client 3 settled balance = %d, want 10 (100+40-130)", i, got)
		}
		if cnt := rep.Counters(); cnt.Conflicts != 0 {
			t.Errorf("replica %d: %d conflicts", i, cnt.Conflicts)
		}
	}
}

// TestCloseFlushesBufferedWork ensures Close drains batches still sitting
// in the submit buffer into the WAL (as slot reservations) so a restart
// rebroadcasts rather than forgets them.
func TestCloseFlushesBufferedWork(t *testing.T) {
	dir := t.TempDir()
	c := walCluster(t, AstroI, 4, dir)
	alice := c.client(1)
	c.payAndWait(alice, 2, 10)
	c.waitSettledEverywhere(1, 5*time.Second)

	// Cut replica 0 off from the network so its next broadcast cannot
	// complete, then submit: the batch stays pending. Close must still
	// persist it.
	node := transport.ReplicaNode(0)
	c.net.Crash(node)
	if _, err := alice.Pay(2, 5); err != nil {
		t.Fatalf("pay: %v", err)
	}
	// The submission races the crash only at the network layer; give the
	// replica a moment to pull it into its buffer via the local channel.
	// Clients talk to their representative over memnet too, so resend
	// until the replica has it queued.
	deadline := time.Now().Add(2 * time.Second)
	for c.replicas[0].PendingSubmits(1) == 0 && c.replicas[0].BroadcastFailures() == 0 {
		if time.Now().After(deadline) {
			t.Skip("submission never reached the crashed replica's buffer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.replicas[0].Close()

	// Reopen the backend raw and verify the close-time snapshot carries
	// the unfinished broadcast as a pending slot reservation.
	be, err := wal.Open(filepath.Join(dir, "rep0"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer be.Abort()
	var img replicaImage
	var sawSnapshot bool
	err = be.Load(
		func(snap []byte) error {
			sawSnapshot = true
			var derr error
			img, derr = decodeReplicaImage(snap)
			return derr
		},
		func(kind byte, payload []byte) error { return nil },
	)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !sawSnapshot {
		t.Fatal("Close wrote no snapshot")
	}
	if len(img.pending) == 0 {
		t.Fatal("close-time snapshot lost the buffered broadcast")
	}
	for slot, payload := range img.pending {
		entries, derr := DecodeBatch(payload)
		if derr != nil {
			t.Fatalf("slot %d: undecodable pending batch: %v", slot, derr)
		}
		if len(entries) == 0 {
			t.Errorf("slot %d: empty pending batch", slot)
		}
	}
}

// TestWALSnapshotCompaction checks that steady traffic with a tiny
// snapshot cadence actually rotates snapshots (recovery must come from
// a snapshot, not a replay of the full history).
func TestWALSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	c := walCluster(t, AstroI, 4, dir)
	alice := c.client(1)
	for i := 0; i < 12; i++ {
		c.payAndWait(alice, 2, 1)
	}
	c.waitSettledEverywhere(12, 10*time.Second)

	c.net.Crash(transport.ReplicaNode(0))
	c.replicas[0].Abandon()
	be, err := wal.Open(filepath.Join(dir, "rep0"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer be.Abort()
	var sawSnapshot bool
	records := 0
	err = be.Load(
		func(snap []byte) error {
			sawSnapshot = true
			_, derr := decodeReplicaImage(snap)
			return derr
		},
		func(kind byte, payload []byte) error { records++; return nil },
	)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !sawSnapshot {
		t.Fatal("no snapshot written despite WALSnapshotEvery=3 and 12 settles")
	}
	// 12 settled batches at cadence 3 → the newest snapshot covers most
	// of history; the tail must be much shorter than the full record
	// stream (4 records per batch worst case ⇒ 48+ without compaction).
	if records > 24 {
		t.Errorf("tail has %d records; compaction appears ineffective", records)
	}
}
