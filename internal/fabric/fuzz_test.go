package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/testclock"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// decodeAllocBound is the most a fabric decoder may allocate for an n-byte
// frame. Decoded sections are larger in memory than on the wire — the worst
// is a sketch segHot entry, 16 wire bytes that become a SpaceSaving and its
// map — but only by a constant; a decoder that sized a slice by an unbacked
// count would allocate up to 2^32 elements and blow through this on a frame
// of a few bytes.
func decodeAllocBound(n int) uint64 { return 32*uint64(n) + 64<<10 }

func measureAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// editRecord returns a copy of the result frame with its i-th record
// unpacked, edited and packed back.
func editRecord(frame []byte, i int, edit func(*trace.Record)) []byte {
	out := append([]byte(nil), frame...)
	at := out[resultHeadLen+i*trace.RecordSize:]
	var rec trace.Record
	trace.Unpack(at, &rec)
	edit(&rec)
	trace.Pack(&rec, at)
	return out
}

// poisonedFrames rewrites the middle record of a result frame the two
// ways a merge cannot survive and the decoder must refuse: its VD moved
// outside the frame's shard (to VD 12, outside a [0,8) shard), and a stage
// latency made NaN.
func poisonedFrames(frame []byte) map[string][]byte {
	mid := int(binary.LittleEndian.Uint32(frame[resultHeadLen-4:])) / 2
	return map[string][]byte{
		"record VD outside the shard": editRecord(frame, mid, func(r *trace.Record) { r.VD = 12 }),
		"record latency NaN":          editRecord(frame, mid, func(r *trace.Record) { r.Latency[2] = float32(math.NaN()) }),
	}
}

// shardFrames runs the fabric tests' study as its two shards, [0,8) and
// [8,16), and returns their result frames, the study's options and the
// fingerprint of its single-process run.
func shardFrames(t testing.TB) (frames [2][]byte, sim *ebs.Sim, opts ebs.Options, want string) {
	t.Helper()
	fleet, err := workload.Generate(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, opts = ebs.New(fleet), testOpts(nil)
	ref, err := sim.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, lo := range []int{0, 8} {
		p, err := sim.RunShard(context.Background(), opts, lo, lo+8)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = encodeResult(uint64(i+1), i, p)
		p.Release()
	}
	return frames, sim, opts, invariant.Fingerprint(ref)
}

// TestPoisonedRecordsAreRefused holds the decoder to the records it lets
// reach the merge: the two shard frames of a study decode and merge to Run's
// dataset, and each poisoned copy of the [0,8) frame — a record of another
// shard's disk, a NaN latency — is refused with ErrWire rather than merged
// into a dataset that silently differs from Run's.
func TestPoisonedRecordsAreRefused(t *testing.T) {
	frames, sim, opts, want := shardFrames(t)
	var parts []*ebs.ShardPartial
	for _, frame := range frames {
		_, _, p, err := decodeResult(frame)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	ds, err := sim.MergeShards(opts, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := invariant.Fingerprint(ds); got != want {
		t.Fatalf("clean frames merge to %s, Run gives %s", got[:12], want[:12])
	}
	for name, frame := range poisonedFrames(frames[0]) {
		if _, _, _, err := decodeResult(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

// resultFailureSeeds returns one malformed shard-result frame per failure
// class the decoder distinguishes.
func resultFailureSeeds() map[string][]byte {
	full := encodeResult(9, 2, samplePartial(secAll))
	// patch overwrites the u32 at off in a copy of frame.
	patch := func(frame []byte, off int, v uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	// A frame with only section sec present puts that section's count at
	// offset 20 (records) or right behind the empty sections before it.
	only := func(sec int) []byte { return encodeResult(9, 2, samplePartial(sec)) }
	const head = 8 + 4 + 4 + 4 // workerID, shardID, lo, hi
	sketchFlag := head + 3*4
	afterSketch := sketchFlag + 1 + 8 + 8 // flag, chaos counters (no sketch)

	badRange := samplePartial(0)
	badRange.Lo, badRange.Hi = 9, 3
	records := only(secRecords)
	badDomain := samplePartial(secStorage)
	badDomain.Storage[0].Domain = 2
	badSketch := only(secSketch)
	badSketch[sketchFlag+1+4] ^= 0xff // first byte of the SKS2 magic

	flag2 := only(0)
	flag2[sketchFlag] = 2

	return map[string][]byte{
		"empty":                     {},
		"truncated header":          full[:head-1],
		"truncated mid-record":      full[:head+4+trace.RecordSize+5],
		"truncated last byte":       full[:len(full)-1],
		"trailing byte":             append(append([]byte(nil), full...), 0),
		"over-claimed records":      patch(only(secRecords), head, 1<<30),
		"over-claimed compute rows": patch(only(secCompute), head+4, 1<<30),
		"over-claimed storage rows": patch(only(secStorage), head+8, 0xffffffff),
		"over-claimed sketch bytes": patch(only(secSketch), sketchFlag+1, 1<<31),
		"over-claimed emission":     patch(only(secEmission), afterSketch, 1<<28),
		"over-claimed audit count":  patch(only(secAudit), afterSketch+4, 1<<30),
		"over-claimed audit string": patch(only(secAudit), afterSketch+8, 1<<30),
		"sketch flag 2":             flag2,
		"malformed sketch":          badSketch,
		"record op out of range":    editRecord(records, 1, func(r *trace.Record) { r.Op = 2 }),
		"record VD below the shard": editRecord(records, 0, func(r *trace.Record) { r.VD = 2 }),
		"record VD past the shard":  editRecord(records, 2, func(r *trace.Record) { r.VD = 9 }),
		"record size zero":          editRecord(records, 1, func(r *trace.Record) { r.Size = 0 }),
		"record latency negative":   editRecord(records, 1, func(r *trace.Record) { r.Latency[4] = -1 }),
		"record latency infinite":   editRecord(records, 0, func(r *trace.Record) { r.Latency[0] = float32(math.Inf(1)) }),
		"row domain out of range":   encodeResult(9, 2, badDomain),
		"inverted shard range":      encodeResult(9, 2, badRange),
	}
}

// TestResultFailureSeeds holds every failure-class seed to its class: each
// must be rejected with ErrWire (a seed that started decoding would silently
// stop covering its class), and every section combination must decode.
func TestResultFailureSeeds(t *testing.T) {
	for name, frame := range resultFailureSeeds() {
		if _, _, _, err := decodeResult(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
	for sec := 0; sec <= secAll; sec++ {
		if _, _, _, err := decodeResult(encodeResult(9, 2, samplePartial(sec))); err != nil {
			t.Errorf("sections %06b: %v", sec, err)
		}
	}
}

// FuzzDecodeResult drives the shard-result decoder — the one frame a worker
// fills with bulk data — over arbitrary bytes: it must not panic, must fail
// only with ErrWire, must not allocate beyond a constant multiple of the
// input, and must accept only frames that re-encode to the identical bytes.
func FuzzDecodeResult(f *testing.F) {
	for sec := 0; sec <= secAll; sec++ {
		f.Add(encodeResult(9, 2, samplePartial(sec)))
	}
	for _, frame := range resultFailureSeeds() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			workerID uint64
			shardID  int
			p        *ebs.ShardPartial
			err      error
		)
		alloc := measureAlloc(func() { workerID, shardID, p, err = decodeResult(data) })
		if alloc > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), alloc, decodeAllocBound(len(data)))
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("decode error %v does not wrap ErrWire", err)
			}
			return
		}
		if frame := encodeResult(workerID, shardID, p); !bytes.Equal(frame, data) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", frame, data)
		}
	})
}

// FuzzResultPayload drives the coordinator's side of OpShardResult — decode
// the payload as a result frame, then account it — over arbitrary payloads:
// it must not panic, must answer OK or StatusError (a payload that is not a
// result frame with ErrWire's text), and must never join or drain a worker.
// Seeds are the two pinned result frames (testdata/encodings/result-*.hex)
// and the two poisoned shard frames of TestPoisonedRecordsAreRefused, each
// as it is, one byte short, one byte long and from a worker that never
// joined, and three payloads too short to hold a frame's head.
func FuzzResultPayload(f *testing.F) {
	shards, _, _, _ := shardFrames(f)
	poisoned := poisonedFrames(shards[0])
	for _, frame := range [][]byte{
		encodeResult(42, 7, samplePartial(secAll)), encodeResult(1, 0, samplePartial(0)),
		poisoned["record VD outside the shard"], poisoned["record latency NaN"],
	} {
		stranger := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint64(stranger, 99)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(append([]byte(nil), frame...), 0))
		f.Add(stranger)
	}
	f.Add([]byte{})
	f.Add(make([]byte, resultHeadLen-1))
	f.Add(make([]byte, resultHeadLen))

	clock := testclock.AtUnix(1000)
	// A coordinator per input: one that kept its ledger across inputs would
	// make an input's outcome depend on the inputs before it.
	handle := func(t testing.TB, data []byte) (*Coordinator, *netblock.Response) {
		co, err := NewCoordinator(Config{Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 16, now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Stop)
		if resp := co.Handle(&netblock.Request{Op: netblock.OpJoinFleet}); resp.Status != netblock.StatusOK {
			t.Fatalf("join: %s", resp.Payload)
		}
		return co, co.Handle(&netblock.Request{Op: netblock.OpShardResult, Payload: append([]byte(nil), data...)})
	}
	// First-use paths (reflection caches, pools) run here, not under an input
	// whose coverage they would make irreproducible.
	handle(f, make([]byte, resultHeadLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		co, resp := handle(t, data)
		if resp.Status != netblock.StatusOK && resp.Status != netblock.StatusError {
			t.Fatalf("status %d", resp.Status)
		}
		if co.Workers() != 1 {
			t.Fatalf("%d workers registered after a shard result, want the 1 that joined", co.Workers())
		}
		if _, _, _, err := decodeResult(data); err != nil {
			if resp.Status != netblock.StatusError || !bytes.Contains(resp.Payload, []byte(ErrWire.Error())) {
				t.Fatalf("undecodable %d-byte payload answered status %d %q", len(data), resp.Status, resp.Payload)
			}
		}
	})
}
