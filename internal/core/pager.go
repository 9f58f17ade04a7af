package core

// Paged account state (PR 10): State optionally backs its striped account
// maps with an embedded KV store (internal/kv), bounding resident memory
// to a configured hot set. Cold accounts live on disk as self-contained
// per-account records (the canonical AccountExport encoding) and fault
// back in on first touch; dirty accounts write back at eviction and at
// every incremental WAL snapshot (FlushDirty), so the published KV image
// plus the log tail is always a recoverable cut.
//
// # Authority invariant
//
// A resident account is authoritative: its KV copy, if any, is stale
// until the next write-back. A non-resident account's KV record is
// authoritative. Readers therefore consult memory first and fall through
// to the store without inserting (audit/merge paths must not defeat
// paging by faulting the world in); only the settle/submit paths
// materialize accounts into the cache.
//
// # Why eviction is crash-safe
//
// Evictions write complete account images with no fsync; durability
// comes from the snapshot path, which flushes every dirty account and
// then publishes the store atomically (one index rename) together with
// the manifest. A crash can lose post-publish evictions or retain them
// partially — both converge, because the WAL tail since the published
// cut replays every settlement duplicate-tolerantly on top of whichever
// image recovery finds (the same argument that makes the
// snapshot-rename/log-truncate window safe in PR 6).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"astro/internal/kv"
	"astro/internal/types"
	"astro/internal/wire"
)

// accountRecVersion is the per-account KV record format version. Version 1
// holds a queue in a batch encoding this build does not read; it is
// refused, not converted.
const accountRecVersion = 2

// accountKeyPrefix namespaces account records inside the shared store
// (the WAL backend keeps its manifest in the same store under a
// different prefix).
const accountKeyPrefix = 'a'

// accountKey returns the KV key for a client's account record.
func accountKey(c types.ClientID) []byte {
	k := make([]byte, 9)
	k[0] = accountKeyPrefix
	bePutU64(k[1:], uint64(c))
	return k
}

// accountKeyClient inverts accountKey; ok=false for foreign keys (the
// manifest, future record types).
func accountKeyClient(k []byte) (types.ClientID, bool) {
	if len(k) != 9 || k[0] != accountKeyPrefix {
		return 0, false
	}
	return types.ClientID(beU64(k[1:])), true
}

func bePutU64(b []byte, v uint64) {
	_ = b[7]
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func beU64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// encodeAccountExport serializes one account as a self-contained durable
// record: the spill format of the pager and the unit the incremental
// snapshot flushes. Queue and UsedDeps are expected in the canonical
// order ExportAccounts produces.
func encodeAccountExport(ex AccountExport) []byte {
	table := batchTable(ex.Queue)
	est := 1 + 8 + 8 + 1 + 4 + len(ex.XLog)*types.PaymentWireSize +
		batchSize(ex.Queue, table) + 4 + 16*len(ex.UsedDeps)
	w := wire.NewWriter(est)
	w.U8(accountRecVersion)
	w.U64(uint64(ex.Client))
	w.U64(uint64(ex.Balance))
	w.Bool(ex.Stuck)
	w.U32(uint32(len(ex.XLog)))
	for _, p := range ex.XLog {
		w.AppendFunc(p.AppendBinary)
	}
	appendBatch(w, ex.Queue, table)
	w.U32(uint32(len(ex.UsedDeps)))
	for _, id := range ex.UsedDeps {
		w.U64(uint64(id.Spender))
		w.U64(uint64(id.Seq))
	}
	return w.Bytes()
}

// decodeAccountExport parses a record written by encodeAccountExport.
func decodeAccountExport(data []byte) (AccountExport, error) {
	var ex AccountExport
	r := wire.NewReader(data)
	if v := r.U8(); r.Err() != nil || v != accountRecVersion {
		return ex, fmt.Errorf("core: account record version %d unsupported", v)
	}
	ex.Client = types.ClientID(r.U64())
	ex.Balance = types.Amount(r.U64())
	ex.Stuck = r.Bool()
	nx := r.U32()
	if r.Err() != nil || !countFits(r, nx, types.PaymentWireSize) {
		return ex, fmt.Errorf("core: account record xlog corrupt")
	}
	if nx > 0 {
		ex.XLog = make([]types.Payment, nx)
	}
	for i := range ex.XLog {
		raw := r.Fixed(types.PaymentWireSize)
		if r.Err() != nil {
			return ex, fmt.Errorf("core: account record xlog corrupt")
		}
		if err := ex.XLog[i].UnmarshalBinary(raw); err != nil {
			return ex, err
		}
	}
	queue, err := readBatchEntries(r)
	if err != nil {
		return ex, fmt.Errorf("core: account record queue: %w", err)
	}
	if len(queue) > 0 {
		ex.Queue = queue
	}
	nu := r.U32()
	if r.Err() != nil || !countFits(r, nu, 16) {
		return ex, fmt.Errorf("core: account record deps corrupt")
	}
	if nu > 0 {
		ex.UsedDeps = make([]types.PaymentID, nu)
	}
	for i := range ex.UsedDeps {
		ex.UsedDeps[i] = types.PaymentID{
			Spender: types.ClientID(r.U64()),
			Seq:     types.Seq(r.U64()),
		}
	}
	if err := r.Finish(); err != nil {
		return ex, fmt.Errorf("core: account record trailing bytes: %w", err)
	}
	return ex, nil
}

// PagingStats counts pager activity since construction. Zero-valued when
// paging is off.
type PagingStats struct {
	Faults     uint64 // cold accounts loaded from the store into the cache
	Evictions  uint64 // accounts dropped from the cache (clean or written back)
	Writebacks uint64 // dirty evictions that wrote a record before dropping
	Flushed    uint64 // dirty accounts written by FlushDirty (snapshot path)
	Resident   int    // accounts currently in memory, across all stripes
}

// statePager is the paging side of a State: the backing store, the
// per-stripe residency bound, activity counters, and the sticky error
// that turns storage faults into fail-stop behavior (mirroring WALErr).
type statePager struct {
	store *kv.Store
	// perStripe bounds each stripe's resident accounts. Floor 2: the
	// Astro I transfer path holds at most two account pointers of one
	// stripe (spender, then beneficiary), and LRU eviction never selects
	// the two most-recently-touched — so held pointers stay resident.
	perStripe int

	faults     atomic.Uint64
	evictions  atomic.Uint64
	writebacks atomic.Uint64
	flushed    atomic.Uint64

	mu  sync.Mutex
	err error
}

// fail records the first pager error (sticky). Read paths that hit it
// degrade to genesis materialization; the error surfaces through
// State.PagerErr / Replica.PagerErr so harnesses treat the replica as
// failed rather than trusting silently diverged state.
func (p *statePager) fail(err error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil && err != nil {
		p.err = err
	}
	return p.err
}

func (p *statePager) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// load fetches and decodes a cold account record; ok=false if the store
// has never seen this client.
func (p *statePager) load(c types.ClientID) (AccountExport, bool, error) {
	val, ok, err := p.store.Get(accountKey(c))
	if err != nil || !ok {
		return AccountExport{}, false, err
	}
	ex, err := decodeAccountExport(val)
	if err != nil {
		return AccountExport{}, false, err
	}
	if ex.Client != c {
		return AccountExport{}, false, fmt.Errorf("core: account record for %d filed under %d", ex.Client, c)
	}
	return ex, true, nil
}

// NewStatePaged is NewStateStriped with a bounded hot-account cache over
// the given store: at most cacheAccounts accounts stay resident (spread
// across the stripes, floor two per stripe); the rest live as KV records
// and fault in on access. cacheAccounts <= 0 or a nil store selects the
// fully resident engine.
func NewStatePaged(version Version, genesis func(types.ClientID) types.Amount, verifyDep func(Dependency) error, stripes int, store *kv.Store, cacheAccounts int) *State {
	s := NewStateStriped(version, genesis, verifyDep, stripes)
	if store == nil || cacheAccounts <= 0 {
		return s
	}
	per := cacheAccounts / len(s.stripes)
	if per < 2 {
		per = 2
	}
	s.pager = &statePager{store: store, perStripe: per}
	return s
}

// Paged reports whether this state spills cold accounts to a store.
func (s *State) Paged() bool { return s.pager != nil }

// PagerErr surfaces the first paging I/O or decode error, if any.
func (s *State) PagerErr() error {
	if s.pager == nil {
		return nil
	}
	return s.pager.Err()
}

// PagingStats returns pager activity counters (zeros when paging is off).
func (s *State) PagingStats() PagingStats {
	var ps PagingStats
	if p := s.pager; p != nil {
		ps.Faults = p.faults.Load()
		ps.Evictions = p.evictions.Load()
		ps.Writebacks = p.writebacks.Load()
		ps.Flushed = p.flushed.Load()
	}
	s.lockAll()
	for _, st := range s.stripes {
		ps.Resident += len(st.accounts)
	}
	s.unlockAll()
	return ps
}

// FlushDirty writes every dirty resident account to the store and clears
// the dirty marks — the incremental snapshot's account pass. Stripes
// flush under their own locks, one at a time; per-account atomicity is
// all the recovery argument needs (the WAL tail replays anything a
// not-yet-flushed account was missing, duplicate-tolerantly). No-op for
// resident states.
func (s *State) FlushDirty() error {
	p := s.pager
	if p == nil {
		return nil
	}
	for _, st := range s.stripes {
		st.mu.Lock()
		for c, a := range st.accounts {
			if !a.dirty {
				continue
			}
			if err := p.store.Put(accountKey(c), encodeAccountExport(exportLocked(c, a))); err != nil {
				st.mu.Unlock()
				return p.fail(err)
			}
			a.dirty = false
			p.flushed.Add(1)
		}
		st.mu.Unlock()
	}
	return nil
}

// exportLocked builds one account's AccountExport in canonical order.
// The account's stripe lock must be held.
func exportLocked(c types.ClientID, a *account) AccountExport {
	ex := AccountExport{
		Client:  c,
		Balance: a.balance,
		Stuck:   a.stuck,
		XLog:    a.xlog.Snapshot(),
	}
	if len(a.queue) > 0 {
		ex.Queue = make([]BatchEntry, 0, len(a.queue))
		for _, e := range a.queue {
			ex.Queue = append(ex.Queue, e)
		}
		sortBatchEntries(ex.Queue)
	}
	ex.UsedDeps = a.usedDeps.export()
	return ex
}

// accountFromExport materializes the in-memory form of one image.
func accountFromExport(ex AccountExport) *account {
	a := &account{
		balance: ex.Balance,
		xlog:    NewXLog(ex.Client),
		queue:   make(map[types.Seq]BatchEntry, len(ex.Queue)),
		stuck:   ex.Stuck,
		client:  ex.Client,
	}
	for _, p := range ex.XLog {
		a.xlog.Append(p)
	}
	for _, e := range ex.Queue {
		a.queue[e.Payment.Seq] = e
	}
	for _, id := range ex.UsedDeps {
		a.usedDeps.add(id)
	}
	return a
}

// ForEachAccount streams every account — resident and cold — as one
// consistent cut under all stripe locks, without faulting cold accounts
// into the cache and without materializing a whole-state slice. This is
// the allocation-flat path the auditor and snapshot encoders use; order
// is unspecified.
func (s *State) ForEachAccount(fn func(AccountExport) error) error {
	s.lockAll()
	defer s.unlockAll()
	return s.forEachAccountLocked(fn)
}

// forEachAccountLocked implements ForEachAccount; every stripe lock must
// be held. Resident accounts shadow their (possibly stale) KV copies.
func (s *State) forEachAccountLocked(fn func(AccountExport) error) error {
	for _, st := range s.stripes {
		for c, a := range st.accounts {
			if err := fn(exportLocked(c, a)); err != nil {
				return err
			}
		}
	}
	return s.forEachColdLocked(fn)
}

// forEachColdLocked streams every non-resident account record out of the
// store (transient decode, no cache insert). Every stripe lock must be
// held, so residency cannot change mid-walk. No-op for resident states.
func (s *State) forEachColdLocked(fn func(AccountExport) error) error {
	p := s.pager
	if p == nil {
		return nil
	}
	err := p.store.ForEach(func(k, v []byte) error {
		c, ok := accountKeyClient(k)
		if !ok {
			return nil // foreign record (the WAL manifest)
		}
		if _, resident := s.stripeFor(c).accounts[c]; resident {
			return nil // memory is authoritative
		}
		ex, err := decodeAccountExport(v)
		if err != nil {
			return err
		}
		return fn(ex)
	})
	if err != nil {
		return p.fail(err)
	}
	return nil
}

// ExportAccount returns one account's image — from memory if resident,
// else from the store, without caching it — and ok=false for a client
// neither holds. The per-account comparison path of MergeFullSnapshot,
// which must not fault the peer's whole account set into the cache.
func (s *State) ExportAccount(c types.ClientID) (AccountExport, bool) {
	st := s.stripeFor(c)
	st.mu.Lock()
	if a, ok := st.accounts[c]; ok {
		ex := exportLocked(c, a)
		st.mu.Unlock()
		return ex, true
	}
	st.mu.Unlock()
	if p := s.pager; p != nil {
		ex, ok, err := p.load(c)
		if err != nil {
			p.fail(err)
			return AccountExport{}, false
		}
		return ex, ok
	}
	return AccountExport{}, false
}
