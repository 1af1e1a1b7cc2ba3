package netblock

import (
	"bytes"
	"io"
	"runtime/debug"
	"sync"
	"testing"
)

// framePayload is a k-byte payload of a recognisable pattern.
func framePayload(k int, salt byte) []byte {
	p := make([]byte, k)
	for i := range p {
		p[i] = byte(i*31) ^ salt
	}
	return p
}

// recycledReadAlloc recycles one k-byte frame's payload, then reads the
// wire frame and returns what that read allocated; it fails the test unless
// the read returns want, or wantErr. A sync.Pool keeps a Put in the
// putting goroutine's processor slot, out of reach of a Get on another one,
// so the pair is tried up to three times and the least allocation is
// returned: a goroutine moved between the two calls is the scheduler's
// doing, not the pool's.
func recycledReadAlloc(t *testing.T, k int, wire []byte, want []byte, wantErr error) uint64 {
	t.Helper()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		first, err := ReadRequest(bytes.NewReader(reqFrame(1, OpShardResult, uint32(k), framePayload(k, 0))))
		if err != nil {
			t.Fatal(err)
		}
		Recycle(first.Payload)
		var req *Request
		alloc := measureAlloc(func() { req, err = ReadRequest(bytes.NewReader(wire)) })
		if err != wantErr {
			t.Fatalf("read after a recycle: error %v, want %v", err, wantErr)
		}
		if wantErr == nil && !bytes.Equal(req.Payload, want) {
			t.Fatal("a frame read into a recycled buffer came back corrupted")
		}
		least = min(least, alloc)
	}
	return least
}

// TestRecycledFrameIsReused: with the collector off, a 1 MiB frame read
// after another 1 MiB frame's payload was recycled is read into that buffer
// — the read commits no frame-sized buffer — where the same read on a cold
// pool commits about 1.5 MiB (TestReadPayloadAllocation's bound).
func TestRecycledFrameIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k = 1 << 20
	payload := framePayload(k, 0x5a)
	alloc := recycledReadAlloc(t, k, reqFrame(2, OpShardResult, k, payload), payload, nil)
	t.Logf("a 1 MiB frame read after a recycle allocated %d bytes", alloc)
	if alloc >= allocChunk {
		t.Errorf("a 1 MiB frame read after a recycle allocated %d bytes, want no frame-sized buffer (under %d)", alloc, allocChunk)
	}
}

// TestTruncatedFrameReturnsPooledBuffer: a frame that ends early while read
// into a recycled buffer fails with io.ErrUnexpectedEOF, as on a cold pool,
// and gives the buffer back: the next full frame of that size is read into
// it.
func TestTruncatedFrameReturnsPooledBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k = 1 << 20
	truncated := reqFrame(3, OpShardResult, k, framePayload(k/4, 1))
	if alloc := recycledReadAlloc(t, k, truncated, nil, io.ErrUnexpectedEOF); alloc >= allocChunk {
		t.Errorf("a truncated 1 MiB frame allocated %d bytes after a recycle, want none frame-sized", alloc)
	}
	// Nothing recycles these reads, so a later try can only find the
	// buffer the truncated read gave back (the retries as in
	// recycledReadAlloc).
	wire := reqFrame(4, OpShardResult, k, framePayload(k, 2))
	alloc := ^uint64(0)
	for try := 0; try < 3 && alloc >= allocChunk; try++ {
		var err error
		alloc = measureAlloc(func() { _, err = ReadRequest(bytes.NewReader(wire)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	if alloc >= allocChunk {
		t.Errorf("the frame after a truncated one allocated %d bytes: the truncated read kept its pooled buffer", alloc)
	}
}

// TestPooledBufferFits: a class hands out only buffers at least as long as
// the frame, and takes nothing of two chunks or less.
func TestPooledBufferFits(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	Recycle(make([]byte, 2*allocChunk))
	if b := pooledBuffer(2 * allocChunk); b != nil {
		t.Errorf("a %d-byte payload was pooled", 2*allocChunk)
	}
	const short = 3 << 20 // class 21 holds [2 MiB, 4 MiB)
	Recycle(make([]byte, short))
	if b := pooledBuffer(short + 1); b != nil {
		t.Errorf("a %d-byte buffer was handed out for a %d-byte frame", cap(b), short+1)
	}
	if b := pooledBuffer(short - 1); len(b) != short-1 || cap(b) != short {
		t.Errorf("pooledBuffer(%d) = len %d cap %d, want the recycled %d-byte buffer", short-1, len(b), cap(b), short)
	}
}

// TestConcurrentReadsShareThePool: readers on several goroutines read
// frames of their own pattern into buffers they draw from the pool and
// recycle, so buffers pass between them; each must read back exactly its
// own bytes, which a buffer handed to two readers at once would break. Run
// under the race detector, it also holds the pool's sharing to ordered
// accesses.
func TestConcurrentReadsShareThePool(t *testing.T) {
	const readers, rounds = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				k := 3*allocChunk + round*allocChunk/2 + g
				payload := framePayload(k, byte(g*rounds+round))
				req, err := ReadRequest(bytes.NewReader(reqFrame(uint64(g), OpShardResult, uint32(k), payload)))
				if err != nil || !bytes.Equal(req.Payload, payload) {
					t.Errorf("reader %d round %d: read %v, or its bytes were not its own", g, round, err)
					return
				}
				Recycle(req.Payload)
			}
		}()
	}
	wg.Wait()
}
