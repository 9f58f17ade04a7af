package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"astro/internal/brb"
	"astro/internal/reconfig"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wal"
	"astro/internal/wire"
)

// Durable replica state (see internal/wal for the sync contract). The WAL
// records everything a replica has externalized an opinion about and must
// not forget across a crash:
//
//   - recEndorse: the not-yet-settled payments of a batch this replica
//     endorsed through the BRB validator, as 32-byte payment bodies back to
//     back — the memory that makes the double-spend check survive a
//     restart (a recovering replica never adopts endorsement memory from
//     peers; only its own log can prove what it promised). Replay binds
//     them in the in-flight window (endorse.go) and then drops whatever
//     the replayed xlogs already answer for;
//   - recBcast: a broadcast-slot reservation — slot plus batch payload,
//     fsynced (Barrier) before the first wire message, so a restarted
//     replica never reuses a slot peers may have acked under a different
//     payload, and can rebroadcast batches that were cut off mid-flight;
//   - recBcastDone: the reservation's release on self-delivery;
//   - recSettle: one delivered batch, post dependency screening, appended
//     after the settlement wave applied — replay drives the identical
//     entries through the identical engine;
//   - recDep: a completed dependency certificate registered for this
//     replica's clients (the beneficiary-side funds that exist nowhere
//     else until attached to a payment).
//
// Compaction snapshots capture the full image (snapshotVersion below); the
// identical encoding serves reconfig full-state transfer, so a recovering
// replica is just a joiner with a prefix. Per settled payment the image
// grows by the xlog entry and the beneficiary's used-dependency mark; its
// endorsement section holds only the in-flight window, so it — and with
// it the whole manifest of a paged replica — stays at in-flight size
// however long the replica has run.
const (
	recEndorse   byte = 1
	recSettle    byte = 2
	recDep       byte = 3
	recBcast     byte = 4
	recBcastDone byte = 5
)

// defaultWALSnapshotEvery is the compaction cadence: settled-batch records
// between snapshots. At the paper's 256-payment batches one snapshot
// covers ~1M payments of log tail — replay stays well under a second while
// snapshot I/O stays far off the settle path.
const defaultWALSnapshotEvery = 4096

// snapshotVersion is the full-image format version (both WAL snapshots and
// reconfig kindStateFull transfers). snapshotVersionManifest marks the
// incremental form: the same image minus the xlog and account sections,
// whose content lives as per-account records in the KV store the snapshot
// publishes with — restart replays manifest + log tail and faults
// accounts lazily, instead of decoding a full-state image. Versions 1 to
// 4 hold endorsement, batch or dependency encodings this build does not
// read; they are refused, not converted.
const (
	snapshotVersion         = 5
	snapshotVersionManifest = 6
)

// replicaImage is the decoded full image of a replica's durable state.
// manifest marks an incremental (v2) image, whose accounts slice is
// empty because the account state lives beside it in the KV store.
type replicaImage struct {
	nextSlot uint64
	pending  map[uint64][]byte
	accounts []AccountExport
	endorsed endorseWindow
	repDeps  map[types.ClientID][]Dependency
	manifest bool
}

// encodeReplicaImage serializes a full image. The xlog section reuses the
// reconfig state-body encoding, so one format serves disk and state
// transfer.
func encodeReplicaImage(img replicaImage) []byte {
	xlogs := make(map[types.ClientID][]types.Payment, len(img.accounts))
	est := 1 + 8 + 4
	for _, p := range img.pending {
		est += 12 + len(p)
	}
	for _, ex := range img.accounts {
		xlogs[ex.Client] = ex.XLog
		est += 17 + batchSize(ex.Queue, batchTable(ex.Queue)) + 4 + 16*len(ex.UsedDeps)
	}
	est += reconfig.StateBodySize(xlogs)
	nEndorsed := 0
	for _, ps := range img.endorsed {
		nEndorsed += len(ps)
	}
	est += 4 + types.PaymentWireSize*nEndorsed
	est += 4
	for _, ds := range img.repDeps {
		est += 12
		for _, d := range ds {
			est += dependencyRecordSize(d)
		}
	}

	w := wire.NewWriter(est)
	if img.manifest {
		w.U8(snapshotVersionManifest)
	} else {
		w.U8(snapshotVersion)
	}
	w.U64(img.nextSlot)
	slots := make([]uint64, 0, len(img.pending))
	for s := range img.pending {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	w.U32(uint32(len(slots)))
	for _, s := range slots {
		w.U64(s)
		w.Chunk(img.pending[s])
	}
	if !img.manifest {
		reconfig.AppendStateBody(w, xlogs)
		w.U32(uint32(len(img.accounts)))
		for _, ex := range img.accounts {
			w.U64(uint64(ex.Client))
			w.U64(uint64(ex.Balance))
			w.Bool(ex.Stuck)
			appendBatch(w, ex.Queue, batchTable(ex.Queue))
			w.U32(uint32(len(ex.UsedDeps)))
			for _, id := range ex.UsedDeps {
				w.U64(uint64(id.Spender))
				w.U64(uint64(id.Seq))
			}
		}
	}
	w.U32(uint32(nEndorsed))
	spenders := make([]types.ClientID, 0, len(img.endorsed))
	for c := range img.endorsed {
		spenders = append(spenders, c)
	}
	slices.Sort(spenders)
	for _, c := range spenders {
		for _, p := range img.endorsed[c] {
			w.AppendFunc(p.AppendBinary)
		}
	}
	w.U32(uint32(len(img.repDeps)))
	clients := make([]types.ClientID, 0, len(img.repDeps))
	for c := range img.repDeps {
		clients = append(clients, c)
	}
	slices.Sort(clients)
	for _, c := range clients {
		ds := img.repDeps[c]
		w.U64(uint64(c))
		w.U32(uint32(len(ds)))
		for _, d := range ds {
			appendDependencyRecord(w, d)
		}
	}
	return w.Bytes()
}

// countFits guards decoded element counts against corrupt length prefixes:
// n elements of at least minSize bytes each must fit in what remains.
func countFits(r *wire.Reader, n uint32, minSize int) bool {
	return uint64(n)*uint64(minSize) <= uint64(r.Remaining())
}

// decodeReplicaImage parses a full (v1) or manifest (v2) image produced
// by encodeReplicaImage.
func decodeReplicaImage(data []byte) (replicaImage, error) {
	var img replicaImage
	r := wire.NewReader(data)
	v := r.U8()
	if r.Err() != nil || (v != snapshotVersion && v != snapshotVersionManifest) {
		return img, fmt.Errorf("core: snapshot version %d unsupported", v)
	}
	img.manifest = v == snapshotVersionManifest
	img.nextSlot = r.U64()
	np := r.U32()
	if r.Err() != nil || !countFits(r, np, 12) {
		return img, fmt.Errorf("core: snapshot pending section corrupt")
	}
	img.pending = make(map[uint64][]byte, np)
	for i := uint32(0); i < np; i++ {
		slot := r.U64()
		pl := r.Chunk()
		if r.Err() != nil {
			return img, fmt.Errorf("core: snapshot pending section corrupt")
		}
		img.pending[slot] = slices.Clone(pl)
	}
	if !img.manifest {
		xlogs, ok := reconfig.ReadStateBody(r)
		if !ok {
			return img, fmt.Errorf("core: snapshot xlog section corrupt")
		}
		na := r.U32()
		if r.Err() != nil || !countFits(r, na, 25) {
			return img, fmt.Errorf("core: snapshot account section corrupt")
		}
		img.accounts = make([]AccountExport, 0, na)
		for i := uint32(0); i < na; i++ {
			var ex AccountExport
			ex.Client = types.ClientID(r.U64())
			ex.Balance = types.Amount(r.U64())
			ex.Stuck = r.Bool()
			queue, err := readBatchEntries(r)
			if err != nil {
				return img, fmt.Errorf("core: snapshot account queue: %w", err)
			}
			if len(queue) > 0 {
				ex.Queue = queue
			}
			nu := r.U32()
			if r.Err() != nil || !countFits(r, nu, 16) {
				return img, fmt.Errorf("core: snapshot account section corrupt")
			}
			if nu > 0 {
				ex.UsedDeps = make([]types.PaymentID, nu)
			}
			for j := range ex.UsedDeps {
				ex.UsedDeps[j] = types.PaymentID{
					Spender: types.ClientID(r.U64()),
					Seq:     types.Seq(r.U64()),
				}
			}
			if xl := xlogs[ex.Client]; len(xl) > 0 {
				ex.XLog = xl
			}
			img.accounts = append(img.accounts, ex)
		}
	}
	ne := r.U32()
	if r.Err() != nil || !countFits(r, ne, types.PaymentWireSize) {
		return img, fmt.Errorf("core: snapshot endorsement section corrupt")
	}
	img.endorsed = make(endorseWindow)
	if err := img.endorsed.read(r.Fixed(int(ne) * types.PaymentWireSize)); err != nil {
		return img, err
	}
	nr := r.U32()
	if r.Err() != nil || !countFits(r, nr, 12) {
		return img, fmt.Errorf("core: snapshot dependency section corrupt")
	}
	img.repDeps = make(map[types.ClientID][]Dependency, nr)
	for i := uint32(0); i < nr; i++ {
		c := types.ClientID(r.U64())
		nd := r.U32()
		if r.Err() != nil || !countFits(r, nd, 1) {
			return img, fmt.Errorf("core: snapshot dependency section corrupt")
		}
		ds := make([]Dependency, 0, nd)
		for j := uint32(0); j < nd; j++ {
			d, err := readDependencyRecord(r)
			if err != nil {
				return img, fmt.Errorf("core: snapshot dependency: %w", err)
			}
			ds = append(ds, d)
		}
		img.repDeps[c] = ds
	}
	if err := r.Finish(); err != nil {
		return img, fmt.Errorf("core: snapshot trailing bytes: %w", err)
	}
	return img, nil
}

// encodeBcastRecord frames a recBcast payload: slot plus raw batch bytes.
func encodeBcastRecord(slot uint64, payload []byte) []byte {
	w := wire.NewWriter(8 + len(payload))
	w.U64(slot)
	w.Raw(payload)
	return w.Bytes()
}

func decodeBcastRecord(payload []byte) (uint64, []byte, error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("core: recBcast record of %d bytes", len(payload))
	}
	r := wire.NewReader(payload[:8])
	return r.U64(), payload[8:], nil
}

func encodeBcastDoneRecord(slot uint64) []byte {
	w := wire.NewWriter(8)
	w.U64(slot)
	return w.Bytes()
}

// captureImage assembles the full durable image. The sections are captured
// under their own locks (bcastMu, the state's stripes, repMu, endorsedMu —
// never nested), which is consistent by the log's FIFO discipline: every
// in-memory mutation happens before its WAL record is appended, and the
// snapshot build runs on the same flow after those appends, so whatever a
// truncated record described is already inside the image.
func (r *Replica) captureImage() replicaImage {
	img := r.captureMeta()
	img.accounts = r.state.ExportAccounts()
	return img
}

// captureMeta captures every image section except the accounts — the
// manifest of the incremental snapshot path, whose account state lives
// as per-account KV records instead of inside the image.
func (r *Replica) captureMeta() replicaImage {
	var img replicaImage
	r.bcastMu.Lock()
	img.nextSlot = r.nextBcastSlot
	img.pending = maps.Clone(r.pendingBcast)
	r.bcastMu.Unlock()
	if img.pending == nil {
		img.pending = make(map[uint64][]byte)
	}
	r.repMu.Lock()
	img.repDeps = make(map[types.ClientID][]Dependency, len(r.repDeps))
	for c, ds := range r.repDeps {
		img.repDeps[c] = slices.Clone(ds)
	}
	// Dependencies attached to batches that are buffered but not yet
	// slot-reserved would otherwise vanish with the buffer: the payments
	// themselves are legitimately volatile (the client retries an
	// unconfirmed submission, re-attaching deps), but the certificates are
	// the beneficiaries' only claim to their funds — fold them back into
	// the attachable set. Deps riding slot-reserved batches stay with the
	// batch (img.pending); restoreProjections re-strips them on replay.
	foldBack := func(entries []BatchEntry) {
		for _, e := range entries {
			if len(e.Deps) > 0 {
				img.repDeps[e.Payment.Spender] = append(img.repDeps[e.Payment.Spender], e.Deps...)
			}
		}
	}
	foldBack(r.buffer)
	for _, b := range r.sendQ {
		foldBack(b)
	}
	r.repMu.Unlock()
	r.endorsedMu.Lock()
	img.endorsed = make(endorseWindow, len(r.endorsed))
	for c, ps := range r.endorsed {
		img.endorsed[c] = slices.Clone(ps)
	}
	r.endorsedMu.Unlock()
	return img
}

// FullSnapshot returns the replica's full durable image — the WAL
// compaction payload, doubling as the reconfig full-state transfer body
// (reconfig.FullStateProvider).
func (r *Replica) FullSnapshot() []byte {
	return encodeReplicaImage(r.captureImage())
}

var _ reconfig.FullStateProvider = (*Replica)(nil)

// recover replays the backend's stored state into the freshly constructed
// replica: snapshot first, then the log tail. Called from NewReplica
// before the broadcast layer exists, single-threaded.
func (r *Replica) recover(be wal.Backend) error {
	err := be.Load(
		func(snap []byte) error {
			img, err := decodeReplicaImage(snap)
			if err != nil {
				return err
			}
			if err := r.installImage(img); err != nil {
				return err
			}
			r.recovered = true
			return nil
		},
		func(kind byte, payload []byte) error {
			r.recovered = true
			return r.replayRecord(kind, payload)
		},
	)
	if err != nil {
		return err
	}
	if r.recovered {
		r.restoreProjections()
		// The image's window, the replayed recEndorse records and the
		// reserved batches may reach below what the replayed settlements
		// have since put in the xlogs.
		for c := range r.endorsed {
			r.endorsed.prune(c, r.state.NextSeq(c)-1)
		}
	}
	return nil
}

// installImage adopts an image wholesale — the fresh-state snapshot
// install at the start of recovery. For a manifest (v2) image the
// account state is already beside it in the KV store: a paged state
// faults accounts lazily (the bounded-restart win — O(manifest + tail),
// not O(accounts)); a resident state on a KV directory loads them all
// now, so disabling paging never hides spilled accounts.
func (r *Replica) installImage(img replicaImage) error {
	switch {
	case !img.manifest:
		for _, ex := range img.accounts {
			r.state.ImportAccount(ex)
		}
	case r.state.Paged():
		// Accounts stay in the store; stripe fault-in serves them.
	case r.accountStore != nil:
		var exs []AccountExport
		err := r.accountStore.ForEach(func(k, v []byte) error {
			if _, ok := accountKeyClient(k); !ok {
				return nil
			}
			ex, err := decodeAccountExport(v)
			if err != nil {
				return err
			}
			exs = append(exs, ex)
			return nil
		})
		if err != nil {
			return fmt.Errorf("core: loading spilled accounts: %w", err)
		}
		for _, ex := range exs {
			r.state.ImportAccount(ex)
		}
	default:
		return fmt.Errorf("core: manifest snapshot requires a KV-backed WAL")
	}
	r.endorsed = img.endorsed
	r.repDeps = img.repDeps
	r.nextBcastSlot = img.nextSlot
	r.pendingBcast = img.pending
	return nil
}

// replayRecord applies one log record on top of the installed snapshot.
// Records may be over-inclusive — a crash between the snapshot rename and
// the log truncate leaves a tail the snapshot already covers — so every
// replay is duplicate-tolerant.
func (r *Replica) replayRecord(kind byte, payload []byte) error {
	switch kind {
	case recEndorse:
		if err := r.endorsed.read(payload); err != nil {
			return fmt.Errorf("core: recEndorse record: %w", err)
		}
	case recSettle:
		entries, err := DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("core: recSettle record: %w", err)
		}
		var wave []types.Payment
		for _, e := range entries {
			wave = append(wave, r.state.ApplyReplay(e)...)
		}
		if len(wave) > 0 {
			r.settledTotal.Add(uint64(len(wave)))
			// Retain per-record waves: CREDIT re-sends must reproduce the
			// exact groups peers accumulated (group identity is the exact
			// payment list of one settlement wave per beneficiary rep).
			r.replayedWaves = append(r.replayedWaves, wave)
		}
	case recDep:
		rd := wire.NewReader(payload)
		d, err := readDependencyRecord(rd)
		if err != nil {
			return fmt.Errorf("core: recDep record: %w", err)
		}
		if err := rd.Finish(); err != nil {
			return fmt.Errorf("core: recDep record: %w", err)
		}
		r.adoptDependency(d)
	case recBcast:
		slot, pl, err := decodeBcastRecord(payload)
		if err != nil {
			return err
		}
		if slot > r.nextBcastSlot {
			r.nextBcastSlot = slot
		}
		r.pendingBcast[slot] = slices.Clone(pl)
	case recBcastDone:
		if len(payload) != 8 {
			return fmt.Errorf("core: recBcastDone record of %d bytes", len(payload))
		}
		rd := wire.NewReader(payload)
		delete(r.pendingBcast, rd.U64())
	default:
		// Unknown kind: a newer format's record. The CRC proved it intact;
		// skipping is the forward-compatible choice.
	}
	return nil
}

// adoptDependency re-registers a logged (or snapshot-carried) dependency
// certificate for this replica's beneficiary clients, skipping clients
// whose credits already materialized (usedDeps travels with the account
// balance — re-adding a spent certificate would inflate the projected
// balance and let the representative broadcast an underfundable payment)
// and deduplicating by group digest against the attachable set.
func (r *Replica) adoptDependency(d Dependency) {
	dg := CreditGroupDigest(d.Group)
	for _, p := range d.Group {
		b := p.Beneficiary
		if r.cfg.RepOf(b) != r.cfg.Self {
			continue
		}
		used := false
		for _, q := range d.Group {
			if q.Beneficiary == b && r.state.DepUsed(b, q.ID()) {
				used = true
				break
			}
		}
		if used {
			continue
		}
		dup := false
		for _, ex := range r.repDeps[b] {
			if CreditGroupDigest(ex.Group) == dg {
				dup = true
				break
			}
		}
		if !dup {
			r.repDeps[b] = append(r.repDeps[b], d)
		}
	}
}

// restoreProjections rebuilds the representative-side in-flight accounting
// from the recovered reservation set: every slot-reserved batch is charged
// exactly as bufferLocked charged it originally, its payments are bound in
// the endorsement memory as submit bound them (the origin runs no
// validator on its own batch, so recBcast is the only record of those
// bindings), and dependencies riding those batches are stripped from the
// attachable set (they were removed at attach time; recDep replay re-added
// them).
func (r *Replica) restoreProjections() {
	r.myInflight = len(r.pendingBcast)
	attached := make(map[types.ClientID]map[types.Digest]bool)
	for _, payload := range r.pendingBcast {
		entries, err := DecodeBatch(payload)
		if err != nil {
			continue // cannot happen: the replica encoded these itself
		}
		for _, e := range entries {
			c := e.Payment.Spender
			if r.cfg.RepOf(c) != r.cfg.Self {
				continue
			}
			r.endorsed.bind(e.Payment)
			r.inflightOut[c] += e.Payment.Amount
			depVal := r.dedupedDepValue(c, e.Deps)
			for _, d := range e.Deps {
				set := attached[c]
				if set == nil {
					set = make(map[types.Digest]bool)
					attached[c] = set
				}
				set[CreditGroupDigest(d.Group)] = true
			}
			r.inflightDeps[c] += depVal
			r.attachedVal[e.Payment.ID()] = depVal
			if e.Payment.Seq > r.submittedHi[c] {
				r.submittedHi[c] = e.Payment.Seq
			}
		}
	}
	for c, set := range attached {
		ds := r.repDeps[c]
		kept := ds[:0]
		for _, d := range ds {
			if !set[CreditGroupDigest(d.Group)] {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			delete(r.repDeps, c)
		} else {
			r.repDeps[c] = kept
		}
	}
}

// finishRecovery runs the post-construction half of the restart: re-enqueue
// CREDIT messages for the replayed settlement tail (peers that crashed
// before sending their share would otherwise starve an f+1 accumulation —
// re-sends are idempotent, receivers deduplicate by signer), and
// rebroadcast every reserved-but-undelivered slot.
func (r *Replica) finishRecovery() {
	if r.cfg.Version == AstroII && r.creditSigner != nil {
		for _, wave := range r.replayedWaves {
			groups := make(map[types.ReplicaID][]types.Payment)
			for _, p := range wave {
				rep := r.cfg.RepOf(p.Beneficiary)
				groups[rep] = append(groups[rep], p)
			}
			reps := make([]types.ReplicaID, 0, len(groups))
			for rep := range groups {
				reps = append(reps, rep)
			}
			slices.Sort(reps)
			for _, rep := range reps {
				r.queueCredit(rep, groups[rep])
			}
		}
	}
	r.replayedWaves = nil
	if s, ok := r.bc.(*brb.Signed); ok && len(r.pendingBcast) > 0 {
		slots := make([]uint64, 0, len(r.pendingBcast))
		for slot := range r.pendingBcast {
			slots = append(slots, slot)
		}
		slices.Sort(slots)
		for _, slot := range slots {
			s.Rebroadcast(slot, r.pendingBcast[slot])
		}
	}
}

// MergeFullSnapshot folds a peer's full image into this replica — the
// catch-up step after FetchState. Adoption is per client and only where
// the peer is provably ahead — a strictly longer xlog, or equal xlog with
// more credit materialized (the peer has processed deliveries this
// replica missed while down; Astro II has no retransmission, so state
// transfer is the only way to learn them). The
// peer's endorsement memory, attachable dependency set, and broadcast
// sequence are never adopted: endorsements are promises only the local log
// can prove, and the rest is representative-local.
func (r *Replica) MergeFullSnapshot(snap []byte) error {
	img, err := decodeReplicaImage(snap)
	if err != nil {
		return err
	}
	if img.manifest {
		// A manifest carries no account state to merge; state transfer
		// always ships the full (v1) image.
		return fmt.Errorf("core: cannot merge a manifest snapshot")
	}
	var settled []types.Payment
	for _, ex := range img.accounts {
		// Per-account comparison (ExportAccount reads cold accounts
		// without caching them), not a whole-state local map — a paged
		// replica merging a million-account peer image must not fault its
		// entire state in to decide what to adopt.
		loc, materialized := r.state.ExportAccount(ex.Client)
		locBal := loc.Balance
		if !materialized {
			locBal = r.cfg.Genesis(ex.Client)
		}
		// Adopt where the peer has provably processed more: a strictly
		// longer xlog, or — for pure beneficiaries whose xlog cannot grow
		// — the same xlog with more credit materialized. Debits are fixed
		// by the xlog and credits only accumulate, so a higher balance at
		// equal length means extra credits; requiring the peer's used-dep
		// set to cover ours guarantees none of our own credits are lost
		// by the replacement.
		longer := len(ex.XLog) > len(loc.XLog)
		creditsAhead := len(ex.XLog) == len(loc.XLog) && ex.Balance > locBal &&
			coversUsedDeps(ex.UsedDeps, loc.UsedDeps)
		if !longer && !creditsAhead {
			continue
		}
		r.state.ImportAccount(ex)
		r.endorsedMu.Lock()
		r.endorsed.prune(ex.Client, types.Seq(len(ex.XLog)))
		r.endorsedMu.Unlock()
		settled = append(settled, r.state.drain(ex.Client)...)
	}
	if len(settled) > 0 {
		r.settledTotal.Add(uint64(len(settled)))
		r.pruneEndorsed(settled)
	}
	r.requestCreditRedo()
	return nil
}

// requestCreditRedo closes the one durability gap a WAL cannot: CREDIT
// signatures addressed to this replica while it was down were dropped on
// the wire, and Astro has no retransmission, so the certificates for its
// clients' credits would strand below f+1 forever. After catch-up, scan
// the (now merged) xlogs for settled payments benefiting this replica's
// own clients that are not yet covered — not materialized into the
// beneficiary's used-dependency set, not held as an attachable
// certificate, not riding an in-flight batch — and ask each spender's
// shard to re-sign them as fresh credit groups. The requests flow
// through the ordinary CREDIT accumulation path, so f+1 identical
// re-signatures form a certificate exactly as at settlement time.
// Cross-shard spenders are reached through the Config.ShardMembers
// directory — their credits settled in *their* shard, so only its
// members can vouch; a shard the directory does not know is skipped
// (the pre-directory behavior).
func (r *Replica) requestCreditRedo() {
	if r.cfg.Version != AstroII || r.creditSigner == nil {
		return
	}
	img := r.captureImage()
	covered := make(map[types.PaymentID]struct{})
	for _, ds := range img.repDeps {
		for _, d := range ds {
			for _, p := range d.Group {
				covered[p.ID()] = struct{}{}
			}
		}
	}
	for _, payload := range img.pending {
		entries, err := DecodeBatch(payload)
		if err != nil {
			continue
		}
		for _, e := range entries {
			for _, d := range e.Deps {
				for _, p := range d.Group {
					covered[p.ID()] = struct{}{}
				}
			}
		}
	}
	used := make(map[types.ClientID]map[types.PaymentID]struct{})
	for _, ex := range img.accounts {
		if len(ex.UsedDeps) == 0 {
			continue
		}
		set := make(map[types.PaymentID]struct{}, len(ex.UsedDeps))
		for _, id := range ex.UsedDeps {
			set[id] = struct{}{}
		}
		used[ex.Client] = set
	}
	// Missing credits bucket by spender shard: a group's signers are the
	// spender shard's members, and the vouching check (redoGroupVouchable
	// → creditGroupInShard) requires shard-homogeneous groups.
	missing := make(map[types.ShardID][]types.Payment)
	for _, ex := range img.accounts {
		for _, p := range ex.XLog {
			if r.cfg.RepOf(p.Beneficiary) != r.cfg.Self {
				continue
			}
			if _, ok := used[p.Beneficiary][p.ID()]; ok {
				continue
			}
			if _, ok := covered[p.ID()]; ok {
				continue
			}
			s := r.cfg.ShardOf(p.Spender)
			missing[s] = append(missing[s], p)
		}
	}
	for s, pays := range missing {
		signers := r.cfg.ShardMembers(s)
		if len(signers) == 0 {
			// Unknown shard: no directory entry, no one to ask. The
			// credits strand exactly as before the directory existed.
			continue
		}
		// Deterministic group composition: every signer re-signs the
		// identical bytes, so the k responses accumulate into one
		// certificate.
		slices.SortFunc(pays, func(a, b types.Payment) int {
			if a.Spender != b.Spender {
				return cmp.Compare(a.Spender, b.Spender)
			}
			return cmp.Compare(a.Seq, b.Seq)
		})
		var groups [][]types.Payment
		for len(pays) > 0 {
			n := min(len(pays), maxGroup)
			groups = append(groups, pays[:n])
			pays = pays[n:]
		}
		if slices.Contains(signers, r.cfg.Self) {
			// This replica is one of the signers: its own settled xlog
			// vouches for the groups directly, with no request to itself.
			for _, g := range groups {
				if r.redoGroupVouchable(r.cfg.Self, g) {
					r.endorseOwnCredit(g)
				}
			}
		}
		for len(groups) > 0 {
			n := min(len(groups), maxRedoGroups)
			msg := encodeCreditRedo(groups[:n])
			groups = groups[n:]
			for _, peer := range signers {
				if peer != r.cfg.Self {
					_ = r.cfg.Mux.Send(transport.ReplicaNode(peer), transport.ChanCredit, msg)
				}
			}
		}
	}
	// Foreign shards hold the xlogs of cross-shard spenders, so credits
	// lost from there cannot even be enumerated locally: ask each
	// directory-known foreign shard to rescan its settled state for this
	// representative's clients and re-sign whatever it finds
	// (CREDITRESCAN). Over-answering is safe — certificates this replica
	// still holds are dropped by attach-time dedup.
	own := r.cfg.ReplicaShard(r.cfg.Self)
	rescan := encodeCreditRescan()
	for _, s := range r.cfg.Shards {
		if s == own {
			continue
		}
		for _, peer := range r.cfg.ShardMembers(s) {
			_ = r.cfg.Mux.Send(transport.ReplicaNode(peer), transport.ChanCredit, rescan)
		}
	}
}

// serveCreditRescan re-signs, for a restarted foreign representative,
// every settled payment in this shard's xlogs whose beneficiary the
// requester represents. The requester cannot name these payments itself —
// it holds no copy of this shard's xlogs — so the scan runs signer-side.
// Group composition is deterministic (sorted by spender then seq,
// chunked at maxGroup): the shard's replicas, whose settled states
// agree, produce identical groups, so their re-signatures accumulate
// into f+1 certificates at the requester exactly like CREDITREDO
// responses. Work per request is bounded by the CREDITREDO caps; the
// scan streams the account state (paging-friendly) and signing rides
// the ordinary credit signer, off this dispatch goroutine.
func (r *Replica) serveCreditRescan(requester types.ReplicaID) {
	if requester == r.cfg.Self || r.creditSigner == nil {
		return
	}
	own := r.cfg.ReplicaShard(r.cfg.Self)
	if r.cfg.ReplicaShard(requester) == own {
		// A same-shard requester enumerates its missing credits itself
		// (precise CREDITREDO); rescan is the cross-shard fallback only.
		return
	}
	var missing []types.Payment
	r.state.ForEachAccount(func(ex AccountExport) error {
		for _, p := range ex.XLog {
			if r.cfg.ShardOf(p.Spender) != own {
				continue // merged foreign history: not ours to vouch for
			}
			if r.cfg.RepOf(p.Beneficiary) != requester {
				continue
			}
			missing = append(missing, p)
		}
		return nil
	})
	if len(missing) == 0 {
		return
	}
	slices.SortFunc(missing, func(a, b types.Payment) int {
		if a.Spender != b.Spender {
			return cmp.Compare(a.Spender, b.Spender)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	if len(missing) > maxRedoGroups*maxGroup {
		missing = missing[:maxRedoGroups*maxGroup]
	}
	for len(missing) > 0 {
		n := min(len(missing), maxGroup)
		r.creditSigner.Enqueue(creditJob{rep: requester, group: missing[:n]})
		missing = missing[n:]
	}
}

// coversUsedDeps reports whether super contains every id in sub.
func coversUsedDeps(super, sub []types.PaymentID) bool {
	if len(sub) == 0 {
		return true
	}
	if len(sub) > len(super) {
		return false
	}
	set := make(map[types.PaymentID]struct{}, len(super))
	for _, id := range super {
		set[id] = struct{}{}
	}
	for _, id := range sub {
		if _, ok := set[id]; !ok {
			return false
		}
	}
	return true
}

// reserveSlot predicts and records the slot the next Broadcast call will
// assign. Correct because the replica is the single serialized broadcaster
// (the sending discipline) and the BRB layer was seeded with the same
// FirstSlot.
func (r *Replica) reserveSlot(payload []byte) uint64 {
	r.bcastMu.Lock()
	r.nextBcastSlot++
	slot := r.nextBcastSlot
	r.pendingBcast[slot] = payload
	r.bcastMu.Unlock()
	return slot
}

// releaseSlot drops a reservation (on self-delivery, or when a Broadcast
// attempt failed and the retry path still owns the batch).
func (r *Replica) releaseSlot(slot uint64) {
	r.bcastMu.Lock()
	delete(r.pendingBcast, slot)
	r.bcastMu.Unlock()
}

// walSnapshotBuild builds the compaction payload on the WAL writer's
// flow (FIFO with appends, so the cut includes every record already
// logged): paged states flush their dirty accounts into the store and
// return the small manifest — snapshot cost tracks the write set, not
// the account population — while resident states return the full image.
// A pager error skips compaction entirely (the log keeps growing and the
// sticky error surfaces): neither a manifest over unflushed accounts nor
// a full export through a failing store is a safe cut.
func (r *Replica) walSnapshotBuild() []byte {
	if r.state.Paged() {
		if err := r.state.FlushDirty(); err != nil {
			return nil
		}
		img := r.captureMeta()
		img.manifest = true
		return encodeReplicaImage(img)
	}
	return r.FullSnapshot()
}

// walMaybeSnapshot triggers a compaction every WALSnapshotEvery settled
// batches.
func (r *Replica) walMaybeSnapshot() {
	every := r.cfg.WALSnapshotEvery
	if every <= 0 {
		return
	}
	if r.walBatches.Add(1)%uint64(every) == 0 {
		r.wal.Snapshot(r.walSnapshotBuild)
	}
}

// WALStats reports the number of records appended and fsync batches issued
// by the durability layer (zeros when disabled).
func (r *Replica) WALStats() (records, syncs uint64) {
	if r.wal == nil {
		return 0, 0
	}
	return r.wal.Stats()
}

// WALErr surfaces the first backend I/O error, if any.
func (r *Replica) WALErr() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.Err()
}

// PagerErr surfaces the first account-paging I/O error, if any — the
// paging analogue of WALErr. A non-nil result means cold-account reads
// may degrade to genesis values; operators should treat it as fail-stop.
func (r *Replica) PagerErr() error { return r.state.PagerErr() }

// PagingStats reports the account pager's counters (faults, evictions,
// writebacks, dirty flushes, resident count); all zero when the state is
// fully resident.
func (r *Replica) PagingStats() PagingStats { return r.state.PagingStats() }

// Recovered reports whether this replica replayed any durable state at
// construction — the signal that a peer catch-up (reconfig.FetchState +
// MergeFullSnapshot) is worth attempting before serving.
func (r *Replica) Recovered() bool { return r.recovered }
