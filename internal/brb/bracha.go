package brb

import (
	"fmt"
	"sync"

	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Bracha implements BRB with the echo/ready protocol of Bracha & Toueg,
// the broadcast layer of Astro I (paper §IV-A, Listing 5).
//
// Per instance: the origin PREPAREs the payload to all; every replica
// ECHOes the first payload it sees for the instance (subject to the
// validator); a Byzantine quorum (2f+1) of matching ECHOes triggers a
// READY, as do f+1 READYs (amplification); 2f+1 matching READYs deliver,
// in per-origin slot order.
type Bracha struct {
	cfg    Config
	others []types.ReplicaID // Config.others

	mu      sync.Mutex
	nextOut uint64
	inst    map[instanceID]*brachaInstance
	order   *fifo
}

var _ Broadcaster = (*Bracha)(nil)

type brachaInstance struct {
	echoSent  bool
	readySent bool
	delivered bool
	// votes are tallied per payload digest so a Byzantine origin sending
	// different payloads to different replicas splits the vote and no
	// payload reaches a quorum.
	echoes   map[types.Digest]map[types.ReplicaID]struct{}
	readys   map[types.Digest]map[types.ReplicaID]struct{}
	payloads map[types.Digest][]byte
}

func newBrachaInstance() *brachaInstance {
	return &brachaInstance{
		echoes:   make(map[types.Digest]map[types.ReplicaID]struct{}),
		readys:   make(map[types.Digest]map[types.ReplicaID]struct{}),
		payloads: make(map[types.Digest][]byte),
	}
}

// NewBracha creates the protocol instance and registers it on the mux's
// BRB channel.
func NewBracha(cfg Config) (*Bracha, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Bracha{
		cfg:     cfg,
		nextOut: cfg.FirstSlot,
		inst:    make(map[instanceID]*brachaInstance),
		order:   newFIFO(),
		others:  cfg.others(),
	}
	cfg.Mux.Register(transport.ChanBRB, b.onMessage)
	return b, nil
}

// Broadcast implements Broadcaster.
func (b *Bracha) Broadcast(payload []byte) (uint64, error) {
	b.mu.Lock()
	b.nextOut++
	slot := b.nextOut
	b.mu.Unlock()
	// The local copy is retained by the instance (and delivered), so it
	// must not alias the caller's buffer.
	buf := make([]byte, len(payload))
	copy(buf, payload)
	b.sendToAll(kindPrepare, instanceID{origin: b.cfg.Self, slot: slot}, buf)
	return slot, nil
}

// Delivered implements Broadcaster.
func (b *Bracha) Delivered(origin types.ReplicaID) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.order.delivered[origin]
}

// sendToAll sends a PREPARE, ECHO or READY to every other peer, then
// handles this replica's own copy by a direct call. Callers hold no lock,
// so the local step runs in protocol order on the caller's goroutine and
// never waits on a queue whose consumer may be waiting on this sender.
func (b *Bracha) sendToAll(kind byte, id instanceID, payload []byte) {
	w := wire.AcquireWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kind, id.origin, id.slot, payload)
	for _, p := range b.others {
		b.sendTo(p, w.Bytes())
	}
	w.Release()
	switch kind {
	case kindPrepare:
		b.handlePrepare(id, payload)
	case kindEcho:
		b.handleEcho(id, b.cfg.Self, payload)
	case kindReady:
		b.handleReady(id, b.cfg.Self, payload)
	}
}

func (b *Bracha) sendTo(peer types.ReplicaID, msg []byte) {
	out := msg
	if b.cfg.Auth != nil {
		tag := b.cfg.Auth.Tag(peer, msg)
		buf := make([]byte, 0, len(msg)+len(tag))
		buf = append(buf, msg...)
		buf = append(buf, tag...)
		out = buf
	}
	// Errors mean the destination is unreachable (crashed); reliable
	// broadcast tolerates message loss to faulty nodes by design.
	_ = b.cfg.Mux.Send(transport.ReplicaNode(peer), transport.ChanBRB, out)
}

func (b *Bracha) onMessage(from transport.NodeID, payload []byte) {
	peer := types.ReplicaID(from)
	if b.cfg.Auth != nil {
		if len(payload) < 32 {
			return
		}
		msg, tag := payload[:len(payload)-32], payload[len(payload)-32:]
		if !b.cfg.Auth.VerifyTag(peer, msg, tag) {
			return // forged or corrupted
		}
		payload = msg
	}
	r := wire.NewReader(payload)
	kind := r.U8()
	origin := types.ReplicaID(r.U32())
	slot := r.U64()
	body := r.Chunk()
	if r.Err() != nil {
		return
	}
	id := instanceID{origin: origin, slot: slot}
	switch kind {
	case kindPrepare:
		// Only the origin itself may open its instances; a spoofed
		// PREPARE from another replica is ignored.
		if peer != origin {
			return
		}
		b.handlePrepare(id, body)
	case kindEcho:
		b.handleEcho(id, peer, body)
	case kindReady:
		b.handleReady(id, peer, body)
	}
}

func (b *Bracha) handlePrepare(id instanceID, payload []byte) {
	b.mu.Lock()
	in := b.instance(id)
	if in.echoSent || in.delivered {
		b.mu.Unlock()
		return
	}
	if b.cfg.Validator != nil && !b.cfg.Validator(id.origin, id.slot, payload) {
		b.mu.Unlock()
		return
	}
	in.echoSent = true
	b.mu.Unlock()
	b.sendToAll(kindEcho, id, payload)
}

func (b *Bracha) handleEcho(id instanceID, peer types.ReplicaID, payload []byte) {
	d := types.HashBytes(payload)
	b.mu.Lock()
	in := b.instance(id)
	if in.delivered {
		b.mu.Unlock()
		return
	}
	in.payloads[d] = payload
	set := in.echoes[d]
	if set == nil {
		set = make(map[types.ReplicaID]struct{})
		in.echoes[d] = set
	}
	set[peer] = struct{}{}
	sendReady := len(set) >= b.cfg.quorum() && !in.readySent
	if sendReady {
		in.readySent = true
	}
	b.mu.Unlock()
	if sendReady {
		b.sendToAll(kindReady, id, payload)
	}
}

func (b *Bracha) handleReady(id instanceID, peer types.ReplicaID, payload []byte) {
	d := types.HashBytes(payload)
	b.mu.Lock()
	in := b.instance(id)
	if in.delivered {
		b.mu.Unlock()
		return
	}
	in.payloads[d] = payload
	set := in.readys[d]
	if set == nil {
		set = make(map[types.ReplicaID]struct{})
		in.readys[d] = set
	}
	set[peer] = struct{}{}

	// Amplification: f+1 READYs for the same payload imply at least one
	// correct replica saw an echo quorum; join in.
	sendReady := len(set) >= b.cfg.F+1 && !in.readySent
	if sendReady {
		in.readySent = true
	}

	var deliveries []delivery
	if len(set) >= b.cfg.quorum() {
		in.delivered = true
		// Retain nothing; tallies for a delivered instance are garbage.
		b.inst[id] = deliveredMarker
		if b.cfg.Unordered {
			// Recovery mode, mirroring Signed: slots missed while down are
			// never retransmitted, so waiting for a consecutive run would
			// wedge the origin forever. The marker above dedups; the
			// high-water mark keeps Delivered() meaningful.
			if id.slot > b.order.delivered[id.origin] {
				b.order.delivered[id.origin] = id.slot
			}
			deliveries = []delivery{{origin: id.origin, slot: id.slot, payload: payload}}
		} else {
			deliveries = b.order.ready(id, payload)
		}
	}
	b.mu.Unlock()

	if sendReady {
		b.sendToAll(kindReady, id, payload)
	}
	for _, dv := range deliveries {
		b.cfg.Deliver(dv.origin, dv.slot, dv.payload)
	}
}

// deliveredMarker replaces a delivered instance's state so duplicate
// messages are cheap to ignore and tallies can be collected.
var deliveredMarker = &brachaInstance{delivered: true}

func (b *Bracha) instance(id instanceID) *brachaInstance {
	in, ok := b.inst[id]
	if !ok {
		in = newBrachaInstance()
		b.inst[id] = in
	}
	return in
}

// String implements fmt.Stringer for diagnostics.
func (b *Bracha) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Sprintf("bracha{self=%d peers=%d f=%d out=%d}", b.cfg.Self, len(b.cfg.Peers), b.cfg.F, b.nextOut)
}
