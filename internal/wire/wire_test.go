package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("wiretest: malformed")

// field is one typed read the table and the fuzz target can issue: its
// encoded size, how to write a sample, and how to read one back as a u64
// image (floats by their bits) so every type compares the same way.
type field struct {
	name  string
	size  int
	write func(*Writer, uint64)
	read  func(*Reader) uint64
}

var fields = []field{
	{"U8", 1, func(w *Writer, v uint64) { w.U8(uint8(v)) }, func(r *Reader) uint64 { return uint64(r.U8()) }},
	{"U32", 4, func(w *Writer, v uint64) { w.U32(uint32(v)) }, func(r *Reader) uint64 { return uint64(r.U32()) }},
	{"U64", 8, func(w *Writer, v uint64) { w.U64(v) }, func(r *Reader) uint64 { return r.U64() }},
	{"I32", 4, func(w *Writer, v uint64) { w.I32(int32(v)) }, func(r *Reader) uint64 { return uint64(uint32(r.I32())) }},
	{"I64", 8, func(w *Writer, v uint64) { w.I64(int64(v)) }, func(r *Reader) uint64 { return uint64(r.I64()) }},
	{"F64", 8, func(w *Writer, v uint64) { w.F64(math.Float64frombits(v)) }, func(r *Reader) uint64 { return math.Float64bits(r.F64()) }},
}

// image is what a size-byte little-endian field holding v's low bytes reads
// back as.
func image(v uint64, size int) uint64 {
	if size == 8 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

// TestReadTypes round-trips every typed read, pins the byte order against
// encoding/binary, and truncates each field at every offset: a short field
// must read as zero and latch an error matching the sentinel.
func TestReadTypes(t *testing.T) {
	const sample = 0x8877665544332211 // top bit set: exercises the signed and float casts
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			var w Writer
			f.write(&w, sample)
			var want [8]byte
			binary.LittleEndian.PutUint64(want[:], sample)
			if !bytes.Equal(w.B, want[:f.size]) {
				t.Fatalf("encoded % x, want % x", w.B, want[:f.size])
			}
			r := NewReader(w.B, errTest)
			if got := f.read(r); got != image(sample, f.size) {
				t.Fatalf("read %#x, want %#x", got, image(sample, f.size))
			}
			if err := r.Done(); err != nil {
				t.Fatalf("Done after an exact read: %v", err)
			}
			for cut := 0; cut < f.size; cut++ {
				r := NewReader(w.B[:cut], errTest)
				if got := f.read(r); got != 0 {
					t.Fatalf("cut %d: short read returned %#x, want 0", cut, got)
				}
				if !errors.Is(r.Err(), errTest) {
					t.Fatalf("cut %d: error %v does not match the sentinel", cut, r.Err())
				}
			}
		})
	}
}

// TestFrameTruncatedAtEveryOffset walks a frame holding every field type, a
// counted section and raw bytes, cut at each length: only the full frame
// decodes, every cut fails with the sentinel, and reads past the failure all
// return zero.
func TestFrameTruncatedAtEveryOffset(t *testing.T) {
	var w Writer
	for i, f := range fields {
		f.write(&w, uint64(i+1)*0x0101010101010101)
	}
	w.Bool(true)
	w.Bool(false)
	w.U32(3) // a counted section of three 2-byte elements
	w.Bytes([]byte{1, 2, 3, 4, 5, 6})
	frame := w.B

	decode := func(data []byte) (vals []uint64, body []byte, err error) {
		r := NewReader(data, errTest)
		for _, f := range fields {
			vals = append(vals, f.read(r))
		}
		vals = append(vals, uint64(r.U8()), uint64(r.U8()))
		body = r.Take(2 * r.Count(2))
		return vals, body, r.Done()
	}
	vals, body, err := decode(frame)
	if err != nil {
		t.Fatalf("full frame: %v", err)
	}
	for i, f := range fields {
		if want := image(uint64(i+1)*0x0101010101010101, f.size); vals[i] != want {
			t.Fatalf("%s read %#x, want %#x", f.name, vals[i], want)
		}
	}
	if vals[len(fields)] != 1 || vals[len(fields)+1] != 0 {
		t.Fatalf("Bool bytes read %v, want 1 then 0", vals[len(fields):])
	}
	if !bytes.Equal(body, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("counted section read % x", body)
	}
	for cut := 0; cut < len(frame); cut++ {
		vals, body, err := decode(frame[:cut])
		if !errors.Is(err, errTest) {
			t.Fatalf("cut %d: error %v does not match the sentinel", cut, err)
		}
		// Fields wholly inside the cut read true; everything from the first
		// short field on is zero.
		off, failed := 0, false
		for i, f := range fields {
			off += f.size
			failed = failed || off > cut
			want := image(uint64(i+1)*0x0101010101010101, f.size)
			if failed {
				want = 0
			}
			if vals[i] != want {
				t.Fatalf("cut %d: %s read %#x, want %#x", cut, f.name, vals[i], want)
			}
		}
		if body != nil {
			t.Fatalf("cut %d: counted section returned % x from a truncated frame", cut, body)
		}
	}
}

func TestCountRefusesUnbackedClaims(t *testing.T) {
	frame := func(n uint32, body int) []byte {
		var w Writer
		w.U32(n)
		w.Bytes(make([]byte, body))
		return w.B
	}
	cases := []struct {
		name     string
		n        uint32
		body     int
		elemSize int
		ok       bool
	}{
		{"empty section", 0, 0, 8, true},
		{"exactly backed", 4, 32, 8, true},
		{"backed with bytes to spare", 4, 40, 8, true},
		{"one byte short", 4, 31, 8, false},
		{"count with no body", 1, 0, 1, false},
		{"max count, small body", math.MaxUint32, 64, 1, false},
		{"max count times a large element", math.MaxUint32, 64, 1 << 31, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(frame(tc.n, tc.body), errTest)
			got := r.Count(tc.elemSize)
			if tc.ok {
				if r.Err() != nil || got != int(tc.n) {
					t.Fatalf("Count = %d, %v; want %d, nil", got, r.Err(), tc.n)
				}
				return
			}
			if got != 0 || !errors.Is(r.Err(), errTest) {
				t.Fatalf("Count = %d, %v; want 0 and the sentinel", got, r.Err())
			}
		})
	}
	t.Run("truncated prefix", func(t *testing.T) {
		r := NewReader([]byte{1, 0, 0}, errTest)
		if got := r.Count(1); got != 0 || !errors.Is(r.Err(), errTest) {
			t.Fatalf("Count = %d, %v; want 0 and the sentinel", got, r.Err())
		}
	})
	t.Run("element size below 1 is a caller bug", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Count(0) did not panic")
			}
		}()
		NewReader(frame(1, 8), errTest).Count(0)
	})
}

func TestErrorIsSticky(t *testing.T) {
	r := NewReader([]byte{7, 1, 2, 3, 4}, errTest)
	if r.U8() != 7 {
		t.Fatal("first byte misread")
	}
	r.U64() // 4 bytes left: fails
	first := r.Err()
	if !errors.Is(first, errTest) {
		t.Fatalf("error %v does not match the sentinel", first)
	}
	// The four bytes a narrower read could still have served are gone too:
	// a decoder must not resynchronise after a failure.
	if r.U32() != 0 || r.U8() != 0 || r.Take(1) != nil || r.Take(0) != nil || r.Count(1) != 0 {
		t.Fatal("a read after the failure returned data")
	}
	r.Fail("a later complaint")
	if r.Err() != first || r.Done() != first {
		t.Fatalf("error changed after the first failure: %v, then %v", first, r.Err())
	}
}

func TestFailWrapsSentinel(t *testing.T) {
	r := NewReader([]byte{1, 2}, errTest)
	r.Fail("field %q is %d", "kind", 9)
	if !errors.Is(r.Err(), errTest) {
		t.Fatalf("error %v does not match the sentinel", r.Err())
	}
	if got, want := r.Err().Error(), `wiretest: malformed: field "kind" is 9`; got != want {
		t.Fatalf("message %q, want %q", got, want)
	}
	if r.U8() != 0 {
		t.Fatal("a read after Fail returned data")
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	r.U8()
	if err := r.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done with 2 bytes unread = %v, want the sentinel", err)
	}
	r = NewReader(nil, errTest)
	if err := r.Done(); err != nil {
		t.Fatalf("Done on an empty, unread frame = %v", err)
	}
}

func TestTake(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	r := NewReader(data, errTest)
	head := r.Take(2)
	if !bytes.Equal(head, []byte{1, 2}) {
		t.Fatalf("Take(2) = % x", head)
	}
	// The result aliases the frame but cannot grow into the bytes after it.
	if head = append(head, 9); data[2] != 3 {
		t.Fatal("appending to a Take result overwrote the frame")
	}
	if got := r.Take(0); len(got) != 0 || r.Err() != nil {
		t.Fatalf("Take(0) = %v, %v; want empty and no error", got, r.Err())
	}
	if r.Take(-1) != nil || !errors.Is(r.Err(), errTest) {
		t.Fatal("Take(-1) did not fail")
	}
}

// FuzzReader runs an arbitrary program of reads over an arbitrary frame and
// checks the cursor against a model that is too simple to be wrong: an
// offset and a failed bit. No program may panic, read a byte twice, return
// data after a failure, or pass a count the unread bytes do not back.
func FuzzReader(f *testing.F) {
	var w Writer
	for i, fd := range fields {
		fd.write(&w, uint64(i+1))
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, w.B)                   // one of each, exact
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, w.B[:20])              // truncated mid-frame
	f.Add([]byte{8, 7}, []byte{2, 0, 0, 0, 5, 6})             // Count then Take
	f.Add([]byte{8}, []byte{0xff, 0xff, 0xff, 0xff})          // over-claimed count
	f.Add([]byte{2, 2, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) // fails, then reads on
	f.Add([]byte{}, []byte{1})                                // nothing read: trailing byte
	f.Fuzz(func(t *testing.T, prog, frame []byte) {
		r := NewReader(frame, errTest)
		off, failed := 0, false
		step := func(size int) (lo int, ok bool) {
			if failed || size > len(frame)-off {
				failed = true
				return 0, false
			}
			lo, off = off, off+size
			return lo, true
		}
		for i, op := range prog {
			switch k := int(op) % 9; {
			case k < len(fields):
				fd := fields[k]
				var want uint64
				if lo, ok := step(fd.size); ok {
					var b [8]byte
					copy(b[:], frame[lo:lo+fd.size])
					want = binary.LittleEndian.Uint64(b[:])
				}
				if got := fd.read(r); got != want {
					t.Fatalf("op %d %s at %d: read %#x, want %#x", i, fd.name, off, got, want)
				}
			case k == 7:
				n := int(op) / 10
				got := r.Take(n)
				var want []byte
				if lo, ok := step(n); ok {
					want = frame[lo : lo+n]
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d Take(%d) at %d: got % x, want % x", i, n, off, got, want)
				}
			default:
				elem := 1 + int(op)/10
				var want int
				if lo, ok := step(4); ok {
					n := binary.LittleEndian.Uint32(frame[lo:])
					if uint64(n)*uint64(elem) > uint64(len(frame)-off) {
						failed = true
					} else {
						want = int(n)
					}
				}
				if got := r.Count(elem); got != want {
					t.Fatalf("op %d Count(%d) at %d: got %d, want %d", i, elem, off, got, want)
				}
			}
			if (r.Err() != nil) != failed {
				t.Fatalf("op %d: Err %v, model failed=%v", i, r.Err(), failed)
			}
		}
		err := r.Done()
		if wantErr := failed || off != len(frame); (err != nil) != wantErr {
			t.Fatalf("Done = %v, model wants error=%v", err, wantErr)
		}
		if err != nil && !errors.Is(err, errTest) {
			t.Fatalf("error %v does not match the sentinel", err)
		}
	})
}

// TestDigestIsSHA256OfWords: a Digest equals sha256.Sum256 of the same words
// in little-endian byte form, for counts on both sides of the 512-word block
// the digest buffers, with U64, I64 and F64 mixed.
func TestDigestIsSHA256OfWords(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 100_000} {
		var d Digest
		var want []byte
		v := uint64(n)
		for i := range n {
			v = v*6364136223846793005 + 1442695040888963407
			switch i % 3 {
			case 0:
				d.U64(v)
			case 1:
				d.I64(int64(v))
			case 2:
				d.F64(math.Float64frombits(v))
			}
			want = binary.LittleEndian.AppendUint64(want, v)
		}
		sum := sha256.Sum256(want)
		if got := d.Sum(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("%d words: digest %s, sha256 %x", n, got, sum)
		}
	}
}
