package netblock

import (
	"math/bits"
	"sync"
)

// framePool holds the payload buffers of large frames that their readers
// handed back (Recycle), for readPayload to read a later frame into: one
// sync.Pool per size class, the class of a buffer being ⌊log₂ cap⌋, so a
// class's buffers lie within a factor of two of each other. It holds only
// buffers readPayload committed for earlier frames, so reading into one
// commits no memory the process did not already hold, whatever a header
// claims; and being sync.Pools, it keeps nothing that two collections pass
// over unused.
var framePool [bits.UintSize]sync.Pool

// poolDraws is how many buffers pooledBuffer draws from a class before it
// gives up on finding one long enough.
const poolDraws = 4

// sizeClass is the framePool class of a buffer of capacity n > 0.
func sizeClass(n int) int { return bits.Len(uint(n)) - 1 }

// pooledBuffer returns a recycled buffer of length n, or nil when n's class
// holds none that long. A frame's class holds buffers up to twice its
// length and down to its class's floor: the draws that are too short go
// back.
func pooledBuffer(n int) []byte {
	pool := &framePool[sizeClass(n)]
	var short [poolDraws][]byte
	var found []byte
	drawn := 0
	for ; drawn < poolDraws; drawn++ {
		b, _ := pool.Get().([]byte)
		if b == nil {
			break
		}
		if cap(b) >= n {
			found = b[:n]
			break
		}
		short[drawn] = b
	}
	for _, b := range short[:drawn] {
		pool.Put(b)
	}
	return found
}

// Recycle hands back the payload of a request that nothing reads any more,
// for a later frame to be read into: the caller must keep no reference to
// it. A handler may recycle the payload of the request it handles; the
// fabric coordinator recycles each shard-result frame once its records are
// merged. Only payloads ReadRequest returned belong here, and only those
// longer than two allocChunks are kept: readPayload reads every shorter
// frame into a buffer of its own size.
func Recycle(payload []byte) {
	if n := cap(payload); n > 2*allocChunk {
		framePool[sizeClass(n)].Put(payload[:n])
	}
}
