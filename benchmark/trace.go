package main

import (
	"bufio"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"astro/internal/kv"
	"astro/internal/transport"
	"astro/internal/wal"
)

// Tracing from outside the program: spans are recorded around the calls
// the benchmark itself makes (Client.Pay, and a payment's life from due to
// confirmation) and by decorators on the two seams a deployment lets a
// caller inject, transport.Endpoint and wal.Backend. Nothing inside the
// system is touched.

// spanKind names a span; the value indexes spanNames.
type spanKind uint8

const (
	spanClientPay     spanKind = iota // due -> confirmation, root, one per payment
	spanClientSubmit                  // the Client.Pay call
	spanTransportSend                 // one Endpoint.Send
	spanWALAppend
	spanWALSync
	spanWALSnapshot
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.pay", "client.submit", "transport.send", "wal.append", "wal.sync", "wal.snapshot",
}

// clientNode offsets a client's index into the node column of a span, so
// that it cannot be mistaken for a replica.
const clientNode = 1000

type span struct {
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
	spender    uint64
	seq        uint64 // payment id, where the span belongs to one payment
	bytes      int32
	node       int32
	kind       spanKind
	ch         uint8 // Mux channel of a transport.send: the payload's first byte
}

// maxSpans bounds the spans kept for the trace file: the first maxSpans
// of the traced window, which hold whole causal chains of its early
// payments. Counters below cover every call, kept or not.
const maxSpans = 1 << 18

// kindTotals aggregates every span of one kind, or one Mux channel.
type kindTotals struct {
	count, busyNS, bytes atomic.Int64
}

func (k *kindTotals) add(durNS int64, bytes int) {
	k.count.Add(1)
	k.busyNS.Add(durNS)
	k.bytes.Add(int64(bytes))
}

type tracer struct {
	epoch   time.Time
	enabled atomic.Bool

	spans  []span
	next   atomic.Int64 // slots of spans handed out
	nextID atomic.Uint64

	kinds [numSpanKinds]kindTotals
	chans [8]kindTotals // transport.send by Mux channel

	// Snapshots are counted, by replica, whenever they happen, enabled or
	// not: there are few, they dominate the tail, and they fall in the
	// open phase.
	snapshotsBy   [8]atomic.Int64
	snapshotMaxNS atomic.Int64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, maxSpans)}
}

// on reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.kinds[s.kind].add(s.end-s.start, int(s.bytes))
	if i := t.next.Add(1) - 1; i < maxSpans {
		t.spans[i] = s
	}
}

// Span identifiers: a payment's root and submit spans are derived from
// its identity, so that children can name their parent before the root,
// which ends last, is recorded. Every other span draws from a counter
// that stays below the derived range.
func paySpanID(clientIdx int, seq uint64) uint64    { return 1<<62 | uint64(clientIdx)<<48 | seq<<1 }
func submitSpanID(clientIdx int, seq uint64) uint64 { return paySpanID(clientIdx, seq) | 1 }

func (t *tracer) beginSubmit(s *spender, seq uint64) {
	s.ep.parent.Store(submitSpanID(s.idx, seq))
}

func (t *tracer) endSubmit(s *spender, seq uint64, start, end int64) {
	s.ep.parent.Store(0)
	t.record(span{
		id: submitSpanID(s.idx, seq), parent: paySpanID(s.idx, seq), kind: spanClientSubmit,
		node: int32(clientNode + s.idx), start: start, end: end, spender: uint64(s.id), seq: seq,
	})
}

func (t *tracer) payDone(s *spender, seq uint64, due, now int64) {
	t.record(span{
		id: paySpanID(s.idx, seq), kind: spanClientPay,
		node: int32(clientNode + s.idx), start: due, end: now, spender: uint64(s.id), seq: seq,
	})
}

// writeJSONL writes the kept spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(t.next.Load(), maxSpans)
	var b []byte
	for _, s := range t.spans[:n] {
		b = b[:0]
		b = append(b, `{"name":"`...)
		b = append(b, spanNames[s.kind]...)
		b = append(b, `","id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(s.node), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, int64(s.bytes), 10)
		if s.kind == spanTransportSend {
			b = append(b, `,"channel":`...)
			b = strconv.AppendUint(b, uint64(s.ch), 10)
		}
		if s.seq != 0 {
			b = append(b, `,"payment":"`...)
			b = strconv.AppendUint(b, s.spender, 10)
			b = append(b, ':')
			b = strconv.AppendUint(b, s.seq, 10)
			b = append(b, '"')
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- transport.Endpoint decorator -----------------------------------------

// traceEndpoint times every Send of the endpoint it wraps and tags it
// with the Mux channel, the payload's first byte. A client's endpoint
// also carries the submit span in progress, which becomes the parent of
// the sends made inside it.
type traceEndpoint struct {
	transport.Endpoint
	tr     *tracer
	node   int32
	parent atomic.Uint64
}

func (e *traceEndpoint) Send(to transport.NodeID, payload []byte) error {
	if !e.tr.on() {
		return e.Endpoint.Send(to, payload)
	}
	start := e.tr.now()
	err := e.Endpoint.Send(to, payload)
	end := e.tr.now()
	var ch uint8
	if len(payload) > 0 {
		ch = payload[0]
	}
	if int(ch) < len(e.tr.chans) {
		e.tr.chans[ch].add(end-start, len(payload))
	}
	e.tr.record(span{
		id: e.tr.nextID.Add(1), parent: e.parent.Load(), kind: spanTransportSend,
		node: e.node, start: start, end: end, bytes: int32(len(payload)), ch: ch,
	})
	return err
}

// ---- wal.Backend decorator -------------------------------------------------

type traceBackend struct {
	wal.Backend
	tr   *tracer
	node int32
}

func (b *traceBackend) timed(kind spanKind, bytes int, call func() error) error {
	start := b.tr.now()
	err := call()
	b.tr.record(span{id: b.tr.nextID.Add(1), kind: kind, node: b.node, start: start, end: b.tr.now(), bytes: int32(bytes)})
	return err
}

func (b *traceBackend) Append(kind byte, payload []byte) error {
	if !b.tr.on() {
		return b.Backend.Append(kind, payload)
	}
	return b.timed(spanWALAppend, len(payload), func() error { return b.Backend.Append(kind, payload) })
}

func (b *traceBackend) Sync() error {
	if !b.tr.on() {
		return b.Backend.Sync()
	}
	return b.timed(spanWALSync, 0, b.Backend.Sync)
}

func (b *traceBackend) WriteSnapshot(snap []byte) error {
	start := b.tr.now()
	err := b.Backend.WriteSnapshot(snap)
	end := b.tr.now()
	b.tr.snapshotsBy[b.node].Add(1)
	for d := end - start; ; {
		cur := b.tr.snapshotMaxNS.Load()
		if d <= cur || b.tr.snapshotMaxNS.CompareAndSwap(cur, d) {
			break
		}
	}
	if b.tr.on() {
		b.tr.record(span{id: b.tr.nextID.Add(1), kind: spanWALSnapshot, node: b.node, start: start, end: end, bytes: int32(min(len(snap), 1<<31-1))})
	}
	return err
}

// tracePagedBackend adds the method core looks for to find the embedded
// KV store, so that a decorated KV-backed WAL still pages.
type tracePagedBackend struct {
	traceBackend
	store *kv.Store
}

func (b *tracePagedBackend) AccountStore() *kv.Store { return b.store }

// decorateBackend wraps be, keeping AccountStore when be has it.
func decorateBackend(be wal.Backend, tr *tracer, node int32) wal.Backend {
	tb := traceBackend{Backend: be, tr: tr, node: node}
	if as, ok := be.(interface{ AccountStore() *kv.Store }); ok {
		return &tracePagedBackend{traceBackend: tb, store: as.AccountStore()}
	}
	return &tb
}
