package core

import (
	"slices"
	"sync"

	"astro/internal/types"
)

// Version selects between the paper's two systems.
type Version int

// The two Astro variants (paper §IV).
const (
	// AstroI uses Bracha's BRB (MACs, O(N²), totality). Settle credits
	// the beneficiary directly; under-funded payments queue until funds
	// arrive (paper §IV "Comparison").
	AstroI Version = 1
	// AstroII uses signature-based BRB (O(N), no totality). Settle
	// withdraws only; beneficiaries are credited through dependency
	// certificates attached to their next outgoing payment (Listing 9).
	AstroII Version = 2
)

// String implements fmt.Stringer.
func (v Version) String() string {
	switch v {
	case AstroI:
		return "Astro I"
	case AstroII:
		return "Astro II"
	default:
		return "Astro?"
	}
}

// account is the per-client replicated state: the xlog, the settled
// balance, delivered-but-unsettled payments keyed by sequence number, and
// (Astro II) the set of already-materialized dependency credits.
type account struct {
	balance  types.Amount
	xlog     *XLog
	queue    map[types.Seq]BatchEntry
	usedDeps usedDepSet
	// stuck marks an xlog whose next payment was delivered without
	// sufficient funds under Astro II semantics: the sequence number can
	// never advance (paper Listing 9's early return). Only a Byzantine
	// representative produces this.
	stuck bool

	// Paging fields (pager.go), meaningful only when the owning State is
	// paged: client keys the account's KV record, dirty marks in-memory
	// mutations the store has not seen, and lruPrev/lruNext thread the
	// stripe's recency list (head = most recent). All guarded by the
	// stripe's lock.
	client  types.ClientID
	dirty   bool
	lruPrev *account
	lruNext *account
}

// Counters summarizes a state's lifetime statistics.
type Counters struct {
	Settled   uint64 // payments applied to xlogs
	Dropped   uint64 // payments discarded (conflicts, stuck xlogs)
	Conflicts uint64 // equivocation attempts observed
}

// add folds another counter set into c.
func (c *Counters) add(o Counters) {
	c.Settled += o.Settled
	c.Dropped += o.Dropped
	c.Conflicts += o.Conflicts
}

// stateStripe is one lock domain of the striped settlement state: a
// disjoint subset of the accounts, guarded by its own mutex, with its own
// share of the lifetime counters.
type stateStripe struct {
	mu       sync.Mutex
	accounts map[types.ClientID]*account
	counters Counters
	// LRU recency list over the resident accounts, maintained only when
	// the owning State is paged (head = most recently touched).
	lruHead *account
	lruTail *account
}

// account returns the stripe's account for c — resident, faulted in from
// the paging store, or materialized with the genesis balance on first
// touch. The stripe's lock must be held. Fresh genesis accounts are NOT
// dirty: they re-materialize identically, so evicting one without a
// write-back is free.
func (st *stateStripe) account(c types.ClientID, s *State) *account {
	a, ok := st.accounts[c]
	if ok {
		if s.pager != nil {
			st.lruTouch(a)
		}
		return a
	}
	if p := s.pager; p != nil {
		ex, found, err := p.load(c)
		if err != nil {
			// Fail-stop via the sticky pager error; the genesis account
			// below keeps the engine runnable while PagerErr surfaces.
			p.fail(err)
		} else if found {
			a = accountFromExport(ex)
			st.insertAccount(c, a, s)
			p.faults.Add(1)
			return a
		}
	}
	a = &account{
		balance: s.genesis(c),
		xlog:    NewXLog(c),
		queue:   make(map[types.Seq]BatchEntry),
		client:  c,
	}
	st.insertAccount(c, a, s)
	return a
}

// insertAccount adds a resident account and, when paged, evicts from the
// cold end until the stripe is back under its residency bound. The
// stripe's lock must be held.
func (st *stateStripe) insertAccount(c types.ClientID, a *account, s *State) {
	st.accounts[c] = a
	p := s.pager
	if p == nil {
		return
	}
	st.lruPush(a)
	for len(st.accounts) > p.perStripe {
		victim := st.lruTail
		// perStripe >= 2 keeps the two most-recently-touched accounts —
		// the at-most-two pointers the Astro I transfer path holds —
		// unevictable; the victim therefore is never a live pointer.
		if victim == nil || victim == a || !st.evict(victim, s) {
			break
		}
	}
}

// evict writes a dirty victim back to the store and drops it from the
// stripe. On a write failure the account stays resident (losing it would
// silently diverge state); the sticky pager error surfaces instead and
// the cache runs over its bound. The stripe's lock must be held.
func (st *stateStripe) evict(a *account, s *State) bool {
	p := s.pager
	if a.dirty {
		if err := p.store.Put(accountKey(a.client), encodeAccountExport(exportLocked(a.client, a))); err != nil {
			p.fail(err)
			return false
		}
		a.dirty = false
		p.writebacks.Add(1)
	}
	st.lruRemove(a)
	delete(st.accounts, a.client)
	p.evictions.Add(1)
	return true
}

// lruPush links a to the recency head. The stripe's lock must be held.
func (st *stateStripe) lruPush(a *account) {
	a.lruPrev = nil
	a.lruNext = st.lruHead
	if st.lruHead != nil {
		st.lruHead.lruPrev = a
	}
	st.lruHead = a
	if st.lruTail == nil {
		st.lruTail = a
	}
}

// lruRemove unlinks a from the recency list. The stripe's lock must be held.
func (st *stateStripe) lruRemove(a *account) {
	if a.lruPrev != nil {
		a.lruPrev.lruNext = a.lruNext
	} else {
		st.lruHead = a.lruNext
	}
	if a.lruNext != nil {
		a.lruNext.lruPrev = a.lruPrev
	} else {
		st.lruTail = a.lruPrev
	}
	a.lruPrev, a.lruNext = nil, nil
}

// lruTouch moves a to the recency head. The stripe's lock must be held.
func (st *stateStripe) lruTouch(a *account) {
	if st.lruHead == a {
		return
	}
	st.lruRemove(a)
	st.lruPush(a)
}

// State is one replica's copy of the full system state (all xlogs of its
// shard) plus the approve/settle engine (paper Listings 3/4 and 8/9).
//
// The paper's blocking "wait until" conditions are realized as queues
// re-evaluated on every state change: approval criterion (1) — all
// preceding payments approved — holds a payment until its predecessor
// settles; criterion (2) — sufficient funds — holds (Astro I) or drops
// (Astro II) it until the balance covers the amount.
//
// # Locking discipline
//
// State is self-synchronized and striped: accounts are hash-sharded
// (types.MixedSharding) over independent lock domains, so settlements
// touching disjoint accounts proceed concurrently — the owning Replica
// fans delivered batches out per stripe. The rules, which together make
// every lock acquisition sequence ascend in stripe index (deadlock-free)
// and every individual settlement atomic under its stripes' locks (no
// torn transfers):
//
//   - single-account operations (Balance, NextSeq, the whole Astro II
//     settle path — withdrawal-only, Listing 9) lock exactly the
//     account's stripe;
//   - an Astro I settlement is a transfer: it holds the spender's and the
//     beneficiary's stripes together, acquired in ascending stripe order
//     (when the beneficiary's stripe sorts below the spender's, the
//     spender's lock is dropped, both are re-acquired in order, and the
//     xlog head is re-validated before settling);
//   - whole-state snapshots (Counters, TotalSettledBalance, Snapshot,
//     Clients) lock every stripe, in ascending order, and read under all
//     of them — a snapshot can never observe a half-applied transfer;
//   - stripe locks are leaves: State never calls out of the package (and
//     never into Replica) while holding one, so callers may acquire them
//     under their own locks.
//
// One stripe (NewStateStriped with stripes <= 1) degrades to one global
// lock: the reference the striping tests compare against.
type State struct {
	version   Version
	genesis   func(types.ClientID) types.Amount
	verifyDep func(Dependency) error // nil: accept (or Astro I, unused)
	stripeOf  func(types.ClientID) types.ShardID
	stripes   []*stateStripe
	// pager, when non-nil, bounds the resident account set and spills
	// cold accounts to an embedded KV store (pager.go). Nil — the
	// default — keeps every account resident, exactly the pre-paging
	// engine.
	pager *statePager
}

// DefaultStateStripes is the stripe count used when none is configured:
// comfortably above any host's core count so disjoint-account settlement
// is limited by cores, not lock domains, while keeping the per-State
// footprint (one map + mutex per stripe) negligible.
const DefaultStateStripes = 16

// NewState creates a state seeded by the genesis balance function, with
// the default stripe count. verifyDep, used only by Astro II, validates
// dependency certificates before they are credited; nil accepts all.
func NewState(version Version, genesis func(types.ClientID) types.Amount, verifyDep func(Dependency) error) *State {
	return NewStateStriped(version, genesis, verifyDep, DefaultStateStripes)
}

// NewStateStriped is NewState with an explicit stripe count; stripes <= 1
// selects a single global lock (the striping tests' reference).
func NewStateStriped(version Version, genesis func(types.ClientID) types.Amount, verifyDep func(Dependency) error, stripes int) *State {
	if genesis == nil {
		genesis = func(types.ClientID) types.Amount { return 0 }
	}
	if stripes < 1 {
		stripes = 1
	}
	// MixedSharding, not plain HashSharding: the clients a sharded
	// replica settles already share a residue class (shard assignment is
	// modulo), and an unmixed modulo stripe map would collapse them into
	// 1/gcd(stripes, shards) of the stripes.
	s := &State{
		version:   version,
		genesis:   genesis,
		verifyDep: verifyDep,
		stripeOf:  types.MixedSharding(stripes),
		stripes:   make([]*stateStripe, stripes),
	}
	for i := range s.stripes {
		s.stripes[i] = &stateStripe{accounts: make(map[types.ClientID]*account)}
	}
	return s
}

// Stripes returns the number of lock domains.
func (s *State) Stripes() int { return len(s.stripes) }

// StripeIndex returns the lock domain the client's account lives in; the
// owning Replica uses it to fan a delivered batch out per stripe.
func (s *State) StripeIndex(c types.ClientID) int { return int(s.stripeOf(c)) }

func (s *State) stripeFor(c types.ClientID) *stateStripe {
	return s.stripes[s.stripeOf(c)]
}

// lockAll acquires every stripe in ascending order — the whole-state
// snapshot entry point.
func (s *State) lockAll() {
	for _, st := range s.stripes {
		st.mu.Lock()
	}
}

func (s *State) unlockAll() {
	for _, st := range s.stripes {
		st.mu.Unlock()
	}
}

// Balance returns the client's settled balance. For Astro II this excludes
// dependencies not yet materialized (those live at the representative).
func (s *State) Balance(c types.ClientID) types.Amount {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.account(c, s).balance
}

// NextSeq returns the sequence number the client's next settleable payment
// must carry.
func (s *State) NextSeq(c types.ClientID) types.Seq {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	return types.Seq(st.account(c, s).xlog.Len() + 1)
}

// SettledAt returns the payment settled under (c, seq), if any — the
// replay/identity check of the representative's submission pre-screen.
func (s *State) SettledAt(c types.ClientID, seq types.Seq) (types.Payment, bool) {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	x := st.account(c, s).xlog
	// Compare in the unsigned domain: seq comes off the wire, and a huge
	// value converted to int first would wrap negative and index below
	// the log.
	if seq == 0 || seq > types.Seq(x.Len()) {
		return types.Payment{}, false
	}
	return x.At(int(seq) - 1), true
}

// XLogSnapshot returns a copy of the client's exclusive log for audit.
func (s *State) XLogSnapshot(c types.ClientID) []types.Payment {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.account(c, s).xlog.Snapshot()
}

// XLog returns the client's exclusive log as a live reference. It is a
// test/serial-use accessor: the caller must guarantee no concurrent
// settlement; concurrent contexts use XLogSnapshot. With paging enabled
// the reference is only valid until the next state operation (an
// eviction detaches it); paged contexts use XLogSnapshot.
func (s *State) XLog(c types.ClientID) *XLog {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.account(c, s).xlog
}

// Counters returns lifetime statistics as one consistent snapshot: every
// stripe is locked, so concurrent settlements are either fully included
// or not at all.
func (s *State) Counters() Counters {
	s.lockAll()
	defer s.unlockAll()
	var out Counters
	for _, st := range s.stripes {
		out.add(st.counters)
	}
	return out
}

// PendingCount returns the number of delivered-but-unsettled payments for
// the client.
func (s *State) PendingCount(c types.ClientID) int {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.account(c, s).queue)
}

// Clients returns all client identities with materialized accounts —
// resident or, for a paged state, spilled to the store.
func (s *State) Clients() []types.ClientID {
	s.lockAll()
	defer s.unlockAll()
	var out []types.ClientID
	for _, st := range s.stripes {
		for c := range st.accounts {
			out = append(out, c)
		}
	}
	if p := s.pager; p != nil {
		err := p.store.ForEachKey(func(k []byte) error {
			if c, ok := accountKeyClient(k); ok {
				if _, resident := s.stripeFor(c).accounts[c]; !resident {
					out = append(out, c)
				}
			}
			return nil
		})
		if err != nil {
			p.fail(err)
		}
	}
	return out
}

// Snapshot exports all xlogs — one consistent cut across every stripe —
// for reconfiguration state transfer. Cold accounts stream from the
// store without entering the cache.
func (s *State) Snapshot() map[types.ClientID][]types.Payment {
	s.lockAll()
	defer s.unlockAll()
	out := make(map[types.ClientID][]types.Payment)
	for _, st := range s.stripes {
		for c, a := range st.accounts {
			out[c] = a.xlog.Snapshot()
		}
	}
	_ = s.forEachColdLocked(func(ex AccountExport) error {
		out[ex.Client] = ex.XLog
		return nil
	})
	return out
}

// TotalSettledBalance sums all account balances under every stripe lock —
// used by conservation tests together with in-flight dependency
// accounting. Because individual settlements are atomic under their
// stripes' locks, the sum can never observe a torn transfer. Cold
// accounts are read from the store without entering the cache.
func (s *State) TotalSettledBalance() types.Amount {
	s.lockAll()
	defer s.unlockAll()
	var sum types.Amount
	for _, st := range s.stripes {
		for _, a := range st.accounts {
			sum += a.balance
		}
	}
	_ = s.forEachColdLocked(func(ex AccountExport) error {
		sum += ex.Balance
		return nil
	})
	return sum
}

// AccountExport is the full durable image of one account: everything the
// engine tracks for a client, in a directly serializable form. It feeds
// both the WAL snapshot and reconfiguration full-state transfer (a
// recovering replica is a joiner with a prefix).
type AccountExport struct {
	Client   types.ClientID
	Balance  types.Amount
	Stuck    bool
	XLog     []types.Payment
	Queue    []BatchEntry      // delivered-but-unsettled, ascending by Seq
	UsedDeps []types.PaymentID // materialized dependency credits, sorted
}

// sortBatchEntries orders a queue export ascending by sequence number —
// the canonical encoding order.
func sortBatchEntries(entries []BatchEntry) {
	slices.SortFunc(entries, func(x, y BatchEntry) int {
		return int(x.Payment.Seq) - int(y.Payment.Seq)
	})
}

// usedDepSet is an account's set of materialized dependency credits (paper
// Listing 9's replay filter): per crediting spender, the sequence numbers
// already credited, ascending. One spender's credits attach in sequence
// order in normal operation, so membership and insertion are a compare
// against the slice tail; anything older falls back to binary search.
type usedDepSet map[types.ClientID][]types.Seq

// has reports whether the credit of payment id has been materialized.
func (u usedDepSet) has(id types.PaymentID) bool {
	seqs := u[id.Spender]
	if n := len(seqs); n == 0 || id.Seq > seqs[n-1] {
		return false
	}
	_, found := slices.BinarySearch(seqs, id.Seq)
	return found
}

// add records the credit of payment id, reporting false when it was
// already there.
func (u *usedDepSet) add(id types.PaymentID) bool {
	if *u == nil {
		*u = make(usedDepSet)
	}
	seqs := (*u)[id.Spender]
	if n := len(seqs); n == 0 || id.Seq > seqs[n-1] {
		(*u)[id.Spender] = append(seqs, id.Seq)
		return true
	}
	i, found := slices.BinarySearch(seqs, id.Seq)
	if !found {
		(*u)[id.Spender] = slices.Insert(seqs, i, id.Seq)
	}
	return !found
}

// export lists the set by (spender, seq) — the canonical encoding order.
func (u usedDepSet) export() []types.PaymentID {
	if len(u) == 0 {
		return nil
	}
	spenders := make([]types.ClientID, 0, len(u))
	n := 0
	for c, seqs := range u {
		spenders = append(spenders, c)
		n += len(seqs)
	}
	slices.Sort(spenders)
	out := make([]types.PaymentID, 0, n)
	for _, c := range spenders {
		for _, seq := range u[c] {
			out = append(out, types.PaymentID{Spender: c, Seq: seq})
		}
	}
	return out
}

// ExportAccounts captures every materialized account — resident and, for
// a paged state, spilled — under all stripe locks: one consistent cut,
// like Snapshot, so no export can observe a half-applied transfer.
// Results are sorted by client for deterministic encodings. Audit and
// transfer paths that do not need the whole slice at once should prefer
// the streaming ForEachAccount.
func (s *State) ExportAccounts() []AccountExport {
	s.lockAll()
	defer s.unlockAll()
	var out []AccountExport
	_ = s.forEachAccountLocked(func(ex AccountExport) error {
		out = append(out, ex)
		return nil
	})
	slices.SortFunc(out, func(x, y AccountExport) int {
		if x.Client < y.Client {
			return -1
		}
		if x.Client > y.Client {
			return 1
		}
		return 0
	})
	return out
}

// ImportAccount installs one account's full image, replacing whatever the
// state holds for that client. Used by snapshot recovery (into a fresh
// state) and by MergeFullSnapshot (adopting a longer peer image).
func (s *State) ImportAccount(ex AccountExport) {
	st := s.stripeFor(ex.Client)
	st.mu.Lock()
	defer st.mu.Unlock()
	a := accountFromExport(ex)
	// Replacing an image the store has not seen: dirty, so an eviction or
	// the next incremental snapshot writes it back.
	a.dirty = true
	if old, ok := st.accounts[ex.Client]; ok && s.pager != nil {
		st.lruRemove(old)
	}
	delete(st.accounts, ex.Client)
	st.insertAccount(ex.Client, a, s)
}

// DepUsed reports whether the client has already materialized the credit
// of the given payment — the replay filter for logged dependency
// certificates (a dependency whose credits are spent must not re-enter the
// representative's attachable set).
func (s *State) DepUsed(c types.ClientID, id types.PaymentID) bool {
	st := s.stripeFor(c)
	st.mu.Lock()
	if a, ok := st.accounts[c]; ok {
		used := a.usedDeps.has(id)
		st.mu.Unlock()
		return used
	}
	st.mu.Unlock()
	if p := s.pager; p != nil {
		ex, ok, err := p.load(c)
		if err != nil {
			p.fail(err)
			return false
		}
		if ok {
			return slices.Contains(ex.UsedDeps, id)
		}
	}
	return false
}

// ApplyReplay feeds one logged batch entry back into the engine during
// crash recovery. It is ApplyEntry minus the counter accounting for
// duplicates: a snapshot plus an over-inclusive log tail (the
// crash-between-snapshot-rename-and-log-truncate window, and any record
// whose settlement the snapshot already covers) replays cleanly, without
// inflating the Conflicts counter that equivocation audits read.
func (s *State) ApplyReplay(e BatchEntry) []types.Payment {
	spender := e.Payment.Spender
	st := s.stripeFor(spender)
	st.mu.Lock()
	acct := st.account(spender, s)
	if acct.stuck || e.Payment.Seq < types.Seq(acct.xlog.Len()+1) {
		st.mu.Unlock()
		return nil // already settled (or unsettleable); snapshot covers it
	}
	if _, dup := acct.queue[e.Payment.Seq]; !dup {
		acct.queue[e.Payment.Seq] = e
		acct.dirty = true
	}
	st.mu.Unlock()
	return s.drain(spender)
}

// ApplyEntry feeds one delivered payment (with attached dependencies) into
// the approve/settle engine and returns every payment that settled as a
// consequence — the payment itself and, for Astro I, any queued payments
// its credit unblocked (transitively). Safe for concurrent use; entries
// for one spender must be applied in delivery order (the per-origin FIFO
// of the broadcast layer, which the Replica's per-stripe fan-out
// preserves).
func (s *State) ApplyEntry(e BatchEntry) []types.Payment {
	spender := e.Payment.Spender
	st := s.stripeFor(spender)
	st.mu.Lock()
	acct := st.account(spender, s)
	switch {
	case acct.stuck:
		st.counters.Dropped++
	case e.Payment.Seq < types.Seq(acct.xlog.Len()+1):
		// Stale duplicate: this identifier already settled. The BRB layer
		// delivers at most once per identifier, so this indicates replay
		// at the payment layer; ignore.
		st.counters.Dropped++
	default:
		if _, dup := acct.queue[e.Payment.Seq]; dup {
			// Second payment with the same identifier: equivocation
			// attempt that slipped past broadcast (different slots). First
			// delivery wins everywhere — FIFO delivery makes the order
			// identical at all correct replicas.
			st.counters.Conflicts++
			st.counters.Dropped++
		} else {
			acct.queue[e.Payment.Seq] = e
			acct.dirty = true
			st.mu.Unlock()
			return s.drain(spender)
		}
	}
	st.mu.Unlock()
	return nil
}

// drain settles every payment that has become approvable starting from
// client c, following credit cascades (Astro I) through a worklist.
func (s *State) drain(c types.ClientID) []types.Payment {
	if s.version == AstroII {
		return s.drainAstroII(c)
	}
	var settled []types.Payment
	work := []types.ClientID{c}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		for {
			p, ok := s.settleHeadAstroI(cur)
			if !ok {
				break
			}
			settled = append(settled, p)
			if p.Beneficiary != cur {
				work = append(work, p.Beneficiary)
			}
		}
	}
	return settled
}

// drainAstroII settles client c's approvable queue head(s) under the
// account's single stripe lock: Astro II settlement only ever touches the
// spender (withdrawal plus the spender's own dependency credits), so no
// cross-stripe coordination exists on this path.
func (s *State) drainAstroII(c types.ClientID) []types.Payment {
	st := s.stripeFor(c)
	st.mu.Lock()
	defer st.mu.Unlock()
	acct := st.account(c, s)
	var settled []types.Payment
	for !acct.stuck {
		next := types.Seq(acct.xlog.Len() + 1)
		e, ok := acct.queue[next]
		if !ok {
			break
		}
		// Every path from here mutates the account (credits, the stuck
		// mark, or the settlement itself).
		acct.dirty = true
		s.creditDependencies(c, acct, e.Deps)
		if acct.balance < e.Payment.Amount {
			// Listing 9 early return: the payment never settles and the
			// sequence number never advances. Only a faulty representative
			// broadcasts such a payment.
			delete(acct.queue, next)
			acct.stuck = true
			st.counters.Dropped++
			continue
		}
		acct.balance -= e.Payment.Amount
		// No direct beneficiary credit: the beneficiary receives the
		// funds through the CREDIT/dependency mechanism.
		delete(acct.queue, next)
		acct.xlog.Append(e.Payment)
		st.counters.Settled++
		settled = append(settled, e.Payment)
	}
	return settled
}

// settleHeadAstroI settles client cur's next queued payment if it is
// approvable, reporting the settled payment. An Astro I settlement is a
// transfer — debit, credit, xlog append — applied atomically under the
// spender's and beneficiary's stripe locks, acquired in ascending stripe
// order (see the locking discipline in State's doc).
func (s *State) settleHeadAstroI(cur types.ClientID) (types.Payment, bool) {
	si := int(s.stripeOf(cur))
	st := s.stripes[si]
	for {
		st.mu.Lock()
		acct := st.account(cur, s)
		if acct.stuck {
			st.mu.Unlock()
			return types.Payment{}, false
		}
		next := types.Seq(acct.xlog.Len() + 1)
		e, ok := acct.queue[next]
		if !ok || acct.balance < e.Payment.Amount {
			// Approval criterion (2) unmet: wait for credits (paper
			// queues under-funded payments).
			st.mu.Unlock()
			return types.Payment{}, false
		}
		ben := e.Payment.Beneficiary
		sj := int(s.stripeOf(ben))
		if sj == si {
			bacct := acct
			if ben != cur {
				bacct = st.account(ben, s)
			}
			settleTransfer(st, acct, bacct, e, next)
			st.mu.Unlock()
			return e.Payment, true
		}
		if sj > si {
			bst := s.stripes[sj]
			bst.mu.Lock()
			settleTransfer(st, acct, bst.account(ben, s), e, next)
			bst.mu.Unlock()
			st.mu.Unlock()
			return e.Payment, true
		}
		// The beneficiary's stripe sorts below the spender's: drop the
		// spender's lock, take both in ascending order, and re-validate
		// the head (a concurrent drain may have settled it — or its
		// funding — in the window).
		st.mu.Unlock()
		bst := s.stripes[sj]
		bst.mu.Lock()
		st.mu.Lock()
		acct = st.account(cur, s)
		next = types.Seq(acct.xlog.Len() + 1)
		e, ok = acct.queue[next]
		if ok && !acct.stuck && acct.balance >= e.Payment.Amount && int(s.stripeOf(e.Payment.Beneficiary)) == sj {
			settleTransfer(st, acct, bst.account(e.Payment.Beneficiary, s), e, next)
			bst.mu.Unlock()
			st.mu.Unlock()
			return e.Payment, true
		}
		bst.mu.Unlock()
		st.mu.Unlock()
		// The head changed under the re-lock; retry from the top (which
		// bails out if nothing settleable remains).
	}
}

// settleTransfer applies one Astro I settlement: debit the spender, credit
// the beneficiary, advance the xlog. Both accounts' stripe locks are held
// by the caller (they coincide for a same-stripe transfer), with st the
// spender's stripe — which is charged the counter.
func settleTransfer(st *stateStripe, acct, bacct *account, e BatchEntry, next types.Seq) {
	acct.balance -= e.Payment.Amount
	bacct.balance += e.Payment.Amount
	delete(acct.queue, next)
	acct.xlog.Append(e.Payment)
	acct.dirty = true
	bacct.dirty = true
	st.counters.Settled++
}

// creditDependencies materializes never-before-seen dependency credits
// into the client's balance (paper Listing 9, lines 44-48), enforcing
// at-most-once semantics through the usedDeps set (replay protection).
// The client's stripe lock is held; verifyDep, when set, runs under it
// (the Replica path screens dependencies before delivery and passes nil).
func (s *State) creditDependencies(c types.ClientID, acct *account, deps []Dependency) {
	for _, d := range deps {
		if s.verifyDep != nil {
			if err := s.verifyDep(d); err != nil {
				continue // unverifiable certificate: ignore, do not credit
			}
		}
		for _, q := range d.Group {
			if q.Beneficiary != c {
				continue
			}
			if acct.usedDeps.add(q.ID()) {
				acct.balance += q.Amount
			}
		}
	}
}
