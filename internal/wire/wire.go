// Package wire is the one bounds-checked little-endian cursor under every
// binary codec above netblock: sketch sets (SKS2), fabric shard results,
// consensus messages, and the gateway's EBG2/EBG3 frames.
// It owns the discipline those decoders share and nothing else: a short read
// latches a typed error and poisons every later read, a length prefix is
// checked against the bytes actually present before the caller allocates by
// it, and a frame with bytes left over is malformed. Formats, caps and
// semantic checks stay with the codecs.
//
// It also owns the canonical form every fingerprint hashes (Digest): the
// dataset, sketch-set, observation, decision-log and chaos-schedule
// fingerprints are SHA-256 over fixed-width little-endian words, written
// through one type. The package imports only the standard library.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
)

// Writer appends fixed-width little-endian fields to B. The zero value
// writes into a fresh slice; set B to reuse a buffer.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)     { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32)   { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)   { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I32(v int32)    { w.U32(uint32(v)) }
func (w *Writer) I64(v int64)    { w.U64(uint64(v)) }
func (w *Writer) F64(v float64)  { w.U64(math.Float64bits(v)) }
func (w *Writer) Bytes(p []byte) { w.B = append(w.B, p...) }

// Bool writes one byte, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Digest is a fingerprint in the making: fixed-width little-endian words fed
// to SHA-256 through a fixed block buffer, so a word costs one store and the
// hash sees one write per 512 words. The zero value is ready to use.
type Digest struct {
	h     hash.Hash
	n     int
	words [512]uint64
	block [512 * 8]byte
}

func (d *Digest) U64(v uint64) {
	if d.n == len(d.words) {
		d.flush()
	}
	d.words[d.n] = v
	d.n++
}

func (d *Digest) I64(v int64)   { d.U64(uint64(v)) }
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// flush hashes the buffered words in their little-endian byte form.
func (d *Digest) flush() {
	if d.h == nil {
		d.h = sha256.New()
	}
	b := d.block[:0]
	for _, v := range d.words[:d.n] {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	d.h.Write(b)
	d.n = 0
}

// Sum returns the hex SHA-256 of every word written so far.
func (d *Digest) Sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
}

// Reader is a cursor over one frame. The first read past the end latches an
// error wrapping the sentinel it was built with, and every later read
// returns zero, so a decoder is written straight-line and asks Err (or Done)
// where it must know — at the latest before it trusts what it decoded.
type Reader struct {
	data     []byte
	off      int
	sentinel error
	// failed is the latch the reads test. A short read sets only it and
	// leaves off at the failing field; Err words the error on demand, which
	// keeps Take free of calls and so inlined into every typed read —
	// decoding one shard result is a few million of them.
	failed bool
	err    error
}

// NewReader starts a cursor at the head of data. Every error the reader
// produces matches sentinel under errors.Is.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{data: data, sentinel: sentinel}
}

// Err is the latched error, nil while every read so far was backed.
func (r *Reader) Err() error {
	if r.failed && r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d of %d", r.sentinel, r.off, len(r.data))
	}
	return r.err
}

// Fail latches a semantic error ("%w: <message>" over the sentinel) the same
// way a short read does; only the first failure is kept.
func (r *Reader) Fail(format string, args ...any) {
	if !r.failed {
		r.failed = true
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Take returns the next n bytes without copying them (they alias the frame),
// or nil after latching an error when fewer than n remain.
func (r *Reader) Take(n int) []byte {
	// One unsigned compare covers n < 0 too: off never passes len(data).
	if r.failed || uint(n) > uint(len(r.data)-r.off) {
		r.failed = true
		return nil
	}
	r.off += n
	return r.data[r.off-n : r.off : r.off]
}

func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I32() int32   { return int32(r.U32()) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and refuses it unless the unread bytes can
// back that many elements of at least elemSize bytes each. Decoders size
// every allocation by a Count result, which is what keeps a hostile length
// prefix from committing memory the frame does not carry. elemSize is the
// smallest encoding of one element and must be at least 1.
func (r *Reader) Count(elemSize int) int {
	if elemSize < 1 {
		panic("wire: Count element size must be at least 1")
	}
	n := r.U32()
	if r.failed {
		return 0
	}
	if left := len(r.data) - r.off; uint64(n)*uint64(elemSize) > uint64(left) {
		r.Fail("%d elements of %d bytes at offset %d, have %d", n, elemSize, r.off, left)
		return 0
	}
	return int(n)
}

// Done ends the decode: the latched error if there is one, an error for
// trailing bytes if the frame was not consumed exactly, else nil.
func (r *Reader) Done() error {
	if !r.failed && r.off != len(r.data) {
		r.Fail("%d trailing bytes", len(r.data)-r.off)
	}
	return r.Err()
}
