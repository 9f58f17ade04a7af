// Package reconfig implements asynchronous membership reconfiguration for
// Astro (paper Appendix A): replicas pass through a sequence of numbered
// views; a joining replica announces itself to the current view, gathers a
// Byzantine quorum of signed view acknowledgments into a view certificate,
// installs the new view, and receives the xlog state from a member.
// No consensus is involved.
//
// For the paper's Figure 8 comparison, the package also implements a
// consensus-style join modeled on BFT-SMaRt's View Manager: the join
// request is totally ordered through three leader-driven phases, after
// which the leader re-establishes sessions with every member sequentially
// before admitting the joiner — the serialization that makes reconfigura-
// tion an order of magnitude slower in the baseline.
package reconfig

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// View is a numbered membership set.
type View struct {
	Num     uint64
	Members []types.ReplicaID
}

// WithJoiner returns the successor view including the joiner, members
// sorted canonically.
func (v View) WithJoiner(j types.ReplicaID) View {
	members := make([]types.ReplicaID, 0, len(v.Members)+1)
	seen := false
	for _, m := range v.Members {
		if m == j {
			seen = true
		}
		members = append(members, m)
	}
	if !seen {
		members = append(members, j)
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	return View{Num: v.Num + 1, Members: members}
}

// Digest returns the signing digest of the view.
func (v View) Digest() types.Digest {
	w := wire.NewWriter(16 + 4*len(v.Members))
	w.U8(0x44) // domain: view
	w.U64(v.Num)
	w.U32(uint32(len(v.Members)))
	for _, m := range v.Members {
		w.U32(uint32(m))
	}
	return types.HashBytes(w.Bytes())
}

// Contains reports membership.
func (v View) Contains(r types.ReplicaID) bool {
	for _, m := range v.Members {
		if m == r {
			return true
		}
	}
	return false
}

// StateProvider exports the xlog state for transfer to joining replicas.
type StateProvider interface {
	StateSnapshot() map[types.ClientID][]types.Payment
}

// StaticState is a fixed-snapshot StateProvider, used when reconfiguring
// quiescent systems and in tests.
type StaticState map[types.ClientID][]types.Payment

// StateSnapshot implements StateProvider.
func (s StaticState) StateSnapshot() map[types.ClientID][]types.Payment { return s }

// FullStateProvider exports the complete durable-state snapshot (the same
// opaque encoding internal/core writes to disk) for transfer to a replica
// recovering from a crash. A recovering replica is a joiner with a prefix:
// it replays its own snapshot+WAL, then fetches a peer's full snapshot to
// catch up past its log's horizon.
type FullStateProvider interface {
	FullSnapshot() []byte
}

// viewF returns the fault threshold to use for a view: the explicit
// override if positive, else derived from the view size (n >= 3f+1).
func viewF(override int, v View) int {
	if override > 0 {
		return override
	}
	return types.MaxFaults(len(v.Members))
}

// Config assembles a member-side reconfiguration manager.
type Config struct {
	Self     types.ReplicaID
	Mux      *transport.Mux
	Keys     *crypto.KeyPair
	Registry *crypto.Registry
	// F overrides the fault threshold of the current view; 0 derives it
	// from the view size, so thresholds grow as the system grows.
	F int
	// InitialView is the view this member starts in.
	InitialView View
	// State provides the snapshot sent to joiners; nil sends empty state.
	State StateProvider
	// Full provides the complete durable-state snapshot served to
	// recovering replicas (kindStateReq); nil disables the reply.
	Full FullStateProvider
}

// Manager is the member-side protocol handler for both join variants.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	view    View
	pending map[types.ReplicaID]*consJoin // consensus-variant joins (leader only)
}

type consJoin struct {
	joiner    types.ReplicaID
	joinerPub []byte
	phase     int
	phaseAcks map[types.ReplicaID]struct{}
	syncQueue []types.ReplicaID
}

// NewManager registers the manager on the mux's reconfiguration channel.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg,
		view:    cfg.InitialView,
		pending: make(map[types.ReplicaID]*consJoin),
	}
	cfg.Mux.Register(transport.ChanReconfig, m.onMessage)
	return m
}

// View returns the member's current view.
func (m *Manager) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return View{Num: m.view.Num, Members: append([]types.ReplicaID(nil), m.view.Members...)}
}

func (m *Manager) onMessage(from transport.NodeID, payload []byte) {
	kind, body := splitKind(payload)
	switch kind {
	case kindJoin:
		m.onJoin(types.ReplicaID(from), body)
	case kindInstall:
		m.onInstall(body)
	case kindStateReq:
		m.onStateReq(types.ReplicaID(from))
	case kindConsJoin:
		m.onConsJoin(types.ReplicaID(from), body)
	case kindConsPhase:
		m.onConsPhase(types.ReplicaID(from), body)
	case kindConsPhaseAck:
		m.onConsPhaseAck(types.ReplicaID(from), body)
	case kindConsSync:
		m.onConsSync(types.ReplicaID(from), body)
	case kindConsSyncAck:
		m.onConsSyncAck(types.ReplicaID(from), body)
	case kindConsAdopt:
		m.onConsAdopt(body)
	}
}

// onConsAdopt adopts the leader-announced view (consensus variant; the
// ordering phases already established agreement on it).
func (m *Manager) onConsAdopt(body []byte) {
	r := wire.NewReader(body)
	v, ok := decodeView(r)
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.Num > m.view.Num {
		m.view = v
	}
}

// ---- Astro (consensusless) join, member side ----

// onJoin acknowledges a join announcement with a signature over the
// successor view.
func (m *Manager) onJoin(joiner types.ReplicaID, body []byte) {
	_, ok := decodeJoin(body)
	if !ok {
		return
	}
	m.mu.Lock()
	next := m.view.WithJoiner(joiner)
	m.mu.Unlock()

	sig, err := m.cfg.Keys.Sign(next.Digest())
	if err != nil {
		return
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(joiner), transport.ChanReconfig,
		encodeViewAck(m.cfg.Self, next.Num, sig))
}

// onInstall verifies the view certificate, installs the view, registers
// the joiner's key, and (as the lowest-ID member of the previous view)
// ships the state snapshot.
func (m *Manager) onInstall(body []byte) {
	inst, ok := decodeInstall(body)
	if !ok {
		return
	}
	m.mu.Lock()
	// The certificate is signed by members of the predecessor view; its
	// quorum is derived from our current view.
	threshold := 2*viewF(m.cfg.F, m.view) + 1
	m.mu.Unlock()
	if err := crypto.VerifyCertificate(m.cfg.Registry, inst.Cert, inst.View.Digest(), threshold, nil); err != nil {
		return
	}

	m.mu.Lock()
	if inst.View.Num <= m.view.Num {
		m.mu.Unlock()
		return // stale
	}
	// Installed views form a sequence.
	prev := m.view
	m.view = inst.View
	m.mu.Unlock()

	_ = m.cfg.Registry.AddSerialized(inst.Joiner, inst.JoinerPub)

	// The lowest-ID member of the previous view performs state transfer.
	if len(prev.Members) > 0 && prev.Members[0] == m.cfg.Self {
		m.sendState(inst.Joiner)
	}
}

// onStateReq serves a recovering replica's full-snapshot request. Unlike
// the lowest-ID-member rule of state transfer on join, every member
// answers: the requester takes the first response and merges it against
// its replayed prefix, so redundancy only helps.
func (m *Manager) onStateReq(to types.ReplicaID) {
	if m.cfg.Full == nil {
		return
	}
	snap := m.cfg.Full.FullSnapshot()
	if snap == nil {
		return
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(to), transport.ChanReconfig, encodeStateFull(snap))
}

func (m *Manager) sendState(to types.ReplicaID) {
	var snap map[types.ClientID][]types.Payment
	if m.cfg.State != nil {
		snap = m.cfg.State.StateSnapshot()
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(to), transport.ChanReconfig, encodeState(snap))
}

// ---- consensus-style join (BFT-SMaRt View Manager model), member side ----

// onConsJoin runs at the leader (lowest-ID member): start the three
// ordering phases for the special reconfiguration request.
func (m *Manager) onConsJoin(joiner types.ReplicaID, body []byte) {
	jn, ok := decodeJoin(body)
	if !ok {
		return
	}
	m.mu.Lock()
	if len(m.view.Members) == 0 || m.view.Members[0] != m.cfg.Self {
		m.mu.Unlock()
		return // not the leader
	}
	if _, dup := m.pending[joiner]; dup {
		m.mu.Unlock()
		return
	}
	cj := &consJoin{joiner: joiner, joinerPub: jn.Pub, phase: 1, phaseAcks: make(map[types.ReplicaID]struct{})}
	m.pending[joiner] = cj
	members := append([]types.ReplicaID(nil), m.view.Members...)
	m.mu.Unlock()
	m.startPhase(members, joiner, 1)
}

// startPhase runs one ordering phase at the leader: it sends the phase to
// the other members and acknowledges it itself, by direct call. The
// caller holds no lock.
func (m *Manager) startPhase(members []types.ReplicaID, joiner types.ReplicaID, phase int) {
	msg := encodeConsPhase(joiner, phase)
	for _, r := range members {
		if r != m.cfg.Self {
			_ = m.cfg.Mux.Send(transport.ReplicaNode(r), transport.ChanReconfig, msg)
		}
	}
	m.consPhaseAck(m.cfg.Self, joiner, phase)
}

// onConsPhase acknowledges an ordering phase back to the leader.
func (m *Manager) onConsPhase(leader types.ReplicaID, body []byte) {
	joiner, phase, ok := decodeConsPhase(body)
	if !ok {
		return
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(leader), transport.ChanReconfig,
		encodeConsPhaseAck(joiner, phase))
}

// onConsPhaseAck advances the leader's phase machine: quorum per phase,
// three phases, then the sequential per-member synchronization.
func (m *Manager) onConsPhaseAck(from types.ReplicaID, body []byte) {
	if joiner, phase, ok := decodeConsPhaseAck(body); ok {
		m.consPhaseAck(from, joiner, phase)
	}
}

func (m *Manager) consPhaseAck(from, joiner types.ReplicaID, phase int) {
	m.mu.Lock()
	cj := m.pending[joiner]
	if cj == nil || cj.phase != phase {
		m.mu.Unlock()
		return
	}
	cj.phaseAcks[from] = struct{}{}
	if len(cj.phaseAcks) < 2*viewF(m.cfg.F, m.view)+1 {
		m.mu.Unlock()
		return
	}
	if cj.phase < 3 {
		cj.phase++
		cj.phaseAcks = make(map[types.ReplicaID]struct{})
		members := append([]types.ReplicaID(nil), m.view.Members...)
		phase := cj.phase
		m.mu.Unlock()
		m.startPhase(members, joiner, phase)
		return
	}
	// Ordered: begin sequential session re-establishment with every
	// member — the View Manager behaviour that dominates join latency.
	cj.phase = 4
	cj.syncQueue = append([]types.ReplicaID(nil), m.view.Members...)
	next := cj.syncQueue[0]
	m.mu.Unlock()
	m.syncWith(next, joiner)
}

// syncWith probes one member's session; the leader's own is acknowledged
// by direct call. The caller holds no lock.
func (m *Manager) syncWith(member, joiner types.ReplicaID) {
	if member == m.cfg.Self {
		m.consSyncAck(m.cfg.Self, joiner)
		return
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(member), transport.ChanReconfig, encodeConsSync(joiner))
}

// onConsSync acknowledges a session re-establishment probe.
func (m *Manager) onConsSync(leader types.ReplicaID, body []byte) {
	joiner, ok := decodeConsSync(body)
	if !ok {
		return
	}
	_ = m.cfg.Mux.Send(transport.ReplicaNode(leader), transport.ChanReconfig, encodeConsSyncAck(joiner))
}

// onConsSyncAck advances the sequential sync; when the queue drains, admit
// the joiner: install the view everywhere, transfer state, notify.
func (m *Manager) onConsSyncAck(from types.ReplicaID, body []byte) {
	if joiner, ok := decodeConsSyncAck(body); ok {
		m.consSyncAck(from, joiner)
	}
}

func (m *Manager) consSyncAck(from, joiner types.ReplicaID) {
	m.mu.Lock()
	cj := m.pending[joiner]
	if cj == nil || cj.phase != 4 || len(cj.syncQueue) == 0 || cj.syncQueue[0] != from {
		m.mu.Unlock()
		return
	}
	cj.syncQueue = cj.syncQueue[1:]
	if len(cj.syncQueue) > 0 {
		next := cj.syncQueue[0]
		m.mu.Unlock()
		m.syncWith(next, joiner)
		return
	}
	delete(m.pending, joiner)
	next := m.view.WithJoiner(joiner)
	m.view = next
	members := append([]types.ReplicaID(nil), next.Members...)
	m.mu.Unlock()

	_ = m.cfg.Registry.AddSerialized(joiner, cj.joinerPub)
	// Tell every other member to adopt the new view (piggybacked as an
	// unauthenticated install for the model; the ordering phases already
	// established agreement).
	ann := encodeConsAdopt(next)
	for _, r := range members {
		if r != joiner && r != m.cfg.Self {
			_ = m.cfg.Mux.Send(transport.ReplicaNode(r), transport.ChanReconfig, ann)
		}
	}
	m.sendState(joiner)
	_ = m.cfg.Mux.Send(transport.ReplicaNode(joiner), transport.ChanReconfig, encodeConsDone(next))
}

// Errors from the join protocols.
var (
	ErrJoinTimeout = errors.New("reconfig: join timed out")
)

// JoinConfig configures a joining replica.
type JoinConfig struct {
	Self     types.ReplicaID
	Mux      *transport.Mux
	Keys     *crypto.KeyPair
	Registry *crypto.Registry
	// F overrides the fault threshold of the view being joined; 0
	// derives it from the view size.
	F int
	// CurrentView is the view the joiner announces itself to.
	CurrentView View
	// Timeout bounds the whole protocol. Default 30s.
	Timeout time.Duration
}

// JoinResult reports the outcome of a join.
type JoinResult struct {
	View    View
	State   map[types.ClientID][]types.Payment
	Latency time.Duration
}

// Join runs the consensusless join protocol from a fresh replica:
// announce, gather 2f+1 view acks, install, receive state. The returned
// latency is the paper's Figure 8 metric — announcement to readiness.
func Join(cfg JoinConfig) (*JoinResult, error) {
	return runJoin(cfg, false)
}

// ConsensusJoin runs the consensus-style join against the same members,
// for the Figure 8 baseline.
func ConsensusJoin(cfg JoinConfig) (*JoinResult, error) {
	return runJoin(cfg, true)
}

func runJoin(cfg JoinConfig, consensus bool) (*JoinResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	next := cfg.CurrentView.WithJoiner(cfg.Self)
	digest := next.Digest()

	type ack struct {
		from types.ReplicaID
		sig  []byte
	}
	acks := make(chan ack, len(cfg.CurrentView.Members)+8)
	stateCh := make(chan map[types.ClientID][]types.Payment, 1)
	doneCh := make(chan View, 1)

	cfg.Mux.Register(transport.ChanReconfig, func(from transport.NodeID, payload []byte) {
		kind, body := splitKind(payload)
		switch kind {
		case kindViewAck:
			id, num, sig, ok := decodeViewAck(body)
			if ok && num == next.Num {
				acks <- ack{from: id, sig: sig}
			}
		case kindState:
			snap, ok := decodeState(body)
			if ok {
				select {
				case stateCh <- snap:
				default:
				}
			}
		case kindConsDone:
			v, ok := decodeConsDone(body)
			if ok {
				select {
				case doneCh <- v:
				default:
				}
			}
		}
	})

	start := time.Now()
	deadline := time.After(cfg.Timeout)
	pub := cfg.Keys.PublicBytes()

	if consensus {
		// Submit the special request to the leader and wait for
		// admission plus state transfer.
		leader := cfg.CurrentView.Members[0]
		if err := cfg.Mux.Send(transport.ReplicaNode(leader), transport.ChanReconfig, encodeConsJoinMsg(pub)); err != nil {
			return nil, fmt.Errorf("reconfig: submit join: %w", err)
		}
		var v View
		select {
		case v = <-doneCh:
		case <-deadline:
			return nil, ErrJoinTimeout
		}
		var snap map[types.ClientID][]types.Payment
		select {
		case snap = <-stateCh:
		case <-deadline:
			return nil, ErrJoinTimeout
		}
		return &JoinResult{View: v, State: snap, Latency: time.Since(start)}, nil
	}

	// Announce to every member of the current view.
	joinMsg := encodeJoinMsg(pub)
	for _, r := range cfg.CurrentView.Members {
		_ = cfg.Mux.Send(transport.ReplicaNode(r), transport.ChanReconfig, joinMsg)
	}

	// Gather a Byzantine quorum of view acknowledgments.
	var cert crypto.Certificate
	need := 2*viewF(cfg.F, cfg.CurrentView) + 1
	for cert.Len() < need {
		select {
		case a := <-acks:
			if !cfg.CurrentView.Contains(a.from) {
				continue
			}
			if !cfg.Registry.VerifySig(a.from, digest, a.sig) {
				continue
			}
			cert.Add(crypto.PartialSig{Replica: a.from, Sig: a.sig})
		case <-deadline:
			return nil, ErrJoinTimeout
		}
	}

	// Install the certified view at every member.
	inst := encodeInstall(installMsg{View: next, Joiner: cfg.Self, JoinerPub: pub, Cert: cert})
	for _, r := range cfg.CurrentView.Members {
		_ = cfg.Mux.Send(transport.ReplicaNode(r), transport.ChanReconfig, inst)
	}

	// Receive the state snapshot.
	select {
	case snap := <-stateCh:
		return &JoinResult{View: next, State: snap, Latency: time.Since(start)}, nil
	case <-deadline:
		return nil, ErrJoinTimeout
	}
}

// FetchConfig configures a full-snapshot fetch by a recovering replica.
type FetchConfig struct {
	Mux *transport.Mux
	// Peers are the members asked for their full snapshot; the first
	// response wins.
	Peers []types.ReplicaID
	// Timeout bounds the fetch. Default 30s.
	Timeout time.Duration
}

// ErrFetchTimeout is returned when no peer answers a full-snapshot fetch.
var ErrFetchTimeout = errors.New("reconfig: state fetch timed out")

// FetchState asks peers for their full durable-state snapshot and returns
// the first response — the catch-up half of crash recovery. Like runJoin
// it temporarily owns the reconfiguration channel; call it before
// NewManager re-registers the member-side handler.
func FetchState(cfg FetchConfig) ([]byte, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	snapCh := make(chan []byte, 1)
	cfg.Mux.Register(transport.ChanReconfig, func(_ transport.NodeID, payload []byte) {
		kind, body := splitKind(payload)
		if kind != kindStateFull {
			return
		}
		snap, ok := decodeStateFull(body)
		if !ok {
			return
		}
		buf := make([]byte, len(snap))
		copy(buf, snap)
		select {
		case snapCh <- buf:
		default:
		}
	})
	req := encodeStateReq()
	for _, p := range cfg.Peers {
		_ = cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanReconfig, req)
	}
	select {
	case snap := <-snapCh:
		return snap, nil
	case <-time.After(cfg.Timeout):
		return nil, ErrFetchTimeout
	}
}
