// Package wire provides small helpers for hand-rolled binary message
// codecs: an appending writer and a consuming reader with sticky errors.
//
// Every protocol in this repository (BRB, payments, consensus, reconfig)
// defines its messages with explicit field-by-field encodings built on this
// package, so the wire format is deterministic and implementation-defined —
// no reflection, no gob.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrShort is returned when a reader runs out of input mid-field.
var ErrShort = errors.New("wire: short buffer")

// ErrTooLong is returned when a length prefix exceeds the configured cap.
var ErrTooLong = errors.New("wire: length prefix too large")

// MaxChunk bounds every length-prefixed field to protect readers against
// maliciously large prefixes. 16 MiB comfortably exceeds the largest batch
// any component of this repository produces.
const MaxChunk = 16 << 20

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity pre-allocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledCap bounds the buffer size retained by released writers, so one
// oversized message does not pin memory in the pool indefinitely.
const maxPooledCap = 64 << 10

// AcquireWriter returns an empty pooled writer with at least the given
// capacity pre-allocated. Release it with Release when the encoding has
// been fully consumed (hashed, or handed to a transport that copies).
//
// The hot encode paths — per-message digests, ACK/COMMIT assembly, batch
// encoding — produce buffers that are consumed synchronously, so pooling
// them removes an allocation per protocol message.
func AcquireWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	}
	return w
}

// Release resets w and returns it to the pool. The caller must not touch w
// — or any slice previously obtained from Bytes — after the call.
func (w *Writer) Release() {
	if cap(w.buf) > maxPooledCap {
		w.buf = nil
	} else {
		w.buf = w.buf[:0]
	}
	writerPool.Put(w)
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b verbatim, with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// AppendFunc appends via an append-style function (for example
// types.Payment.AppendBinary), writing directly into the accumulated
// buffer instead of through an intermediate allocation.
func (w *Writer) AppendFunc(f func([]byte) []byte) { w.buf = f(w.buf) }

// Bytes32 appends a fixed 32-byte value (e.g. a digest).
func (w *Writer) Bytes32(b [32]byte) { w.buf = append(w.buf, b[:]...) }

// Chunk appends a uint32 length prefix followed by b.
func (w *Writer) Chunk(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// DigestListSize is the exact encoded size of a digest list of length n.
func DigestListSize(n int) int { return 4 + 32*n }

// AppendDigestList appends a uint32 count followed by the 32-byte digests.
// It is generic over the digest type so protocol packages can pass their
// own named [32]byte types (types.Digest) without copying. The credit
// channel's digest-chain wire forms (CREDITCHAINDEF, the chain tables of
// dependency certificates) share this layout.
func AppendDigestList[D ~[32]byte](w *Writer, ds []D) {
	w.U32(uint32(len(ds)))
	for _, d := range ds {
		w.buf = append(w.buf, d[:]...)
	}
}

// ReadDigestList consumes a digest list of at most max entries. A zero
// count decodes as nil.
func ReadDigestList[D ~[32]byte](r *Reader, max int) ([]D, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, fmt.Errorf("%w: digest list of %d (cap %d)", ErrTooLong, n, max)
	}
	if n == 0 {
		return nil, nil
	}
	ds := make([]D, n)
	for i := range ds {
		b := r.take(32)
		if b == nil {
			return nil, r.Err()
		}
		copy(ds[i][:], b)
	}
	return ds, nil
}

// Reader consumes an encoded message. Methods record the first error and
// become no-ops afterwards; check Err (or use Finish) once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data. The reader does not copy data;
// Chunk and Rest return sub-slices of it.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 consumes a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bool consumes one byte and reports whether it is non-zero.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 consumes a fixed 32-byte value.
func (r *Reader) Bytes32() (out [32]byte) {
	b := r.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// Chunk consumes a uint32 length prefix and that many bytes. The returned
// slice aliases the reader's input.
func (r *Reader) Chunk() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > MaxChunk {
		r.err = fmt.Errorf("%w: %d", ErrTooLong, n)
		return nil
	}
	return r.take(int(n))
}

// String consumes a uint32 length prefix and that many bytes as a string.
func (r *Reader) String() string {
	return string(r.Chunk())
}

// Fixed consumes exactly n bytes with no length prefix. The returned
// slice aliases the reader's input.
func (r *Reader) Fixed(n int) []byte {
	if n < 0 {
		r.err = ErrShort
		return nil
	}
	return r.take(n)
}

// Rest consumes and returns all remaining bytes.
func (r *Reader) Rest() []byte {
	return r.take(r.Remaining())
}

// Finish returns an error if decoding failed or if unconsumed bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}
