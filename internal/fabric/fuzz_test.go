package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
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

// recordSection is the offset of a bare result frame's first record: behind
// workerID, shardID, lo, hi and the record count.
const recordSection = 8 + 4 + 4 + 4 + 4

// editRecord returns a copy of the bare result frame with its i-th record
// unpacked, edited and packed back.
func editRecord(frame []byte, i int, edit func(*trace.Record)) []byte {
	out := append([]byte(nil), frame...)
	at := out[recordSection+i*trace.RecordSize:]
	var rec trace.Record
	trace.Unpack(at, &rec)
	edit(&rec)
	trace.Pack(&rec, at)
	return out
}

// poisonedFrames rewrites the middle record of a bare result frame the two
// ways a merge cannot survive and the decoder must refuse: its VD moved
// outside the frame's shard (to VD 12, outside a [0,8) shard), and a stage
// latency made NaN.
func poisonedFrames(frame []byte) map[string][]byte {
	mid := int(binary.LittleEndian.Uint32(frame[recordSection-4:])) / 2
	return map[string][]byte{
		"record VD outside the shard": editRecord(frame, mid, func(r *trace.Record) { r.VD = 12 }),
		"record latency NaN":          editRecord(frame, mid, func(r *trace.Record) { r.Latency[2] = float32(math.NaN()) }),
	}
}

// shardFrames runs the fabric tests' study as its two shards, [0,8) and
// [8,16), and returns their bare result frames, the study's options and the
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

// FuzzResultPayload drives the leader's side of OpShardResult — stamp the
// header room, propose the received buffer, apply — over arbitrary payloads:
// it must not panic, must answer OK or StatusError, must leave behind a
// cmdResult command of worker 0 at the leader's clock whose frame is
// everything behind the header (whatever the reserved bytes claimed), and
// must never join or drain a worker. Seeds are the two pinned result frames
// (testdata/encodings/result-*.hex) and the two poisoned shard frames of
// TestPoisonedRecordsAreRefused under random headers.
func FuzzResultPayload(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	shards, _, _, _ := shardFrames(f)
	poisoned := poisonedFrames(shards[0])
	for _, frame := range [][]byte{
		encodeResult(42, 7, samplePartial(secAll)), encodeResult(1, 0, samplePartial(0)),
		poisoned["record VD outside the shard"], poisoned["record latency NaN"],
	} {
		for i := 0; i < 4; i++ {
			hdr := make([]byte, commandHeaderLen)
			rng.Read(hdr)
			f.Add(append(hdr, frame...))
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, commandHeaderLen-1))
	f.Add(make([]byte, commandHeaderLen))

	clock := testclock.AtUnix(1000)
	// A coordinator per input: one that kept its ledger and log across inputs
	// would grow without bound and make an input's outcome depend on the
	// inputs before it.
	handle := func(t testing.TB, data []byte) (*Coordinator, []byte, *netblock.Response) {
		co, err := NewCoordinator(Config{Fleet: testFleetConfig(), Opts: testOpts(nil), Shards: 16, now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Stop)
		if resp := co.Handle(&netblock.Request{Op: netblock.OpJoinFleet}); resp.Status != netblock.StatusOK {
			t.Fatalf("join: %s", resp.Payload)
		}
		payload := append([]byte(nil), data...)
		return co, payload, co.Handle(&netblock.Request{Op: netblock.OpShardResult, Payload: payload})
	}
	// First-use paths (reflection caches, pools) run here, not under an input
	// whose coverage they would make irreproducible.
	handle(f, make([]byte, commandHeaderLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		co, payload, resp := handle(t, data)
		if resp.Status != netblock.StatusOK && resp.Status != netblock.StatusError {
			t.Fatalf("status %d", resp.Status)
		}
		if co.Workers() != 1 {
			t.Fatalf("%d workers registered after a shard result, want the 1 that joined", co.Workers())
		}
		if len(data) < commandHeaderLen {
			if resp.Status != netblock.StatusError || !bytes.Contains(resp.Payload, []byte(ErrWire.Error())) {
				t.Fatalf("%d-byte payload answered status %d %q", len(data), resp.Status, resp.Payload)
			}
			return
		}
		c, err := decodeCommand(payload)
		if err != nil {
			t.Fatalf("the stamped payload is not a ledger command: %v", err)
		}
		if c.Kind != cmdResult || c.Worker != 0 || c.At != clock.Now().UnixNano() || !bytes.Equal(c.Frame, data[commandHeaderLen:]) {
			t.Fatalf("stamped kind=%d worker=%d at=%d over a %d-byte frame", c.Kind, c.Worker, c.At, len(c.Frame))
		}
	})
}

// commandFailureSeeds returns one malformed ledger command per failure class.
func commandFailureSeeds() map[string][]byte {
	valid := encodeCommand(&command{Kind: cmdResult, Worker: 2, At: 5, Frame: []byte{1, 2, 3}})
	kind := func(k uint8) []byte {
		out := append([]byte(nil), valid...)
		out[0] = k
		return out
	}
	overClaimed := append([]byte(nil), valid...)
	overClaimed[1+8+8+3] = 0x7f // high byte of the u32 frame length
	return map[string][]byte{
		"empty":              {},
		"truncated header":   valid[:1+8+8+3],
		"truncated frame":    valid[:len(valid)-1],
		"trailing byte":      append(append([]byte(nil), valid...), 0),
		"over-claimed frame": overClaimed,
		"kind 0":             kind(0),
		"kind past drain":    kind(cmdDrain + 1),
	}
}

// FuzzDecodeCommand drives the replicated-ledger command decoder under the
// same contract as FuzzDecodeResult. Every replica applies these from its
// consensus log, so one frame that panics a decoder stops the whole group.
func FuzzDecodeCommand(f *testing.F) {
	for kind := cmdJoin; kind <= cmdDrain; kind++ {
		f.Add(encodeCommand(&command{Kind: kind, Worker: 7, At: -9}))
	}
	f.Add(encodeCommand(&command{Kind: cmdResult, Worker: 2, At: 1e9, Frame: encodeResult(2, 1, samplePartial(secRecords))}))
	for _, frame := range commandFailureSeeds() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c command
		var err error
		if alloc := measureAlloc(func() { c, err = decodeCommand(data) }); alloc > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), alloc, decodeAllocBound(len(data)))
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("decode error %v does not wrap ErrWire", err)
			}
			return
		}
		if frame := encodeCommand(&c); !bytes.Equal(frame, data) {
			t.Fatalf("accepted command re-encodes differently:\n got %x\nwant %x", frame, data)
		}
	})
}

func TestCommandFailureSeeds(t *testing.T) {
	for name, frame := range commandFailureSeeds() {
		if _, err := decodeCommand(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}
