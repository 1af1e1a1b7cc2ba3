package gateway

import (
	"encoding/json"
	"errors"
	"fmt"

	"ebslab/internal/invariant"
	"ebslab/internal/wire"
)

// ErrWire reports a malformed gateway frame.
var ErrWire = errors.New("gateway: malformed message")

// Study lifecycle states, in wire order. A study is Queued from admission
// until the scheduler grants it a run slot, Running until its execution
// returns, then exactly one of Done, Failed, or Canceled.
const (
	StateQueued uint8 = iota + 1
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// StateName renders a state for JSON replies and logs.
func StateName(s uint8) string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state-%d", s)
}

// SubmitRequest is the OpSubmitStudy payload: who is asking and what to run.
type SubmitRequest struct {
	Tenant string
	Spec   StudySpec
}

// submitMagic versions the submit frame; snapMagic the snapshot reply. The
// submit frame skipped EBG3 when it dropped EBG2's retired leader-kill
// count, so no two layouts ever share a magic.
var (
	submitMagic = []byte("EBG4")
	snapMagic   = []byte("EBG3")
)

// EncodeSubmit frames a submission for the wire:
//
//	"EBG4" | u8 tenantLen | tenant
//	      | i64 seed | u32 dur | u32 nodes | u32 users | u32 maxVDs
//	      | u32 eventSample | u32 traceSample | u32 shards
//	      | u8 controlLen | control | u32 controlEpochSec
//	      | u8 scenarioLen | scenario
//
// Integers are little-endian, matching the netblock frame the payload rides
// in. Every section is always written; a zero control or scenario length
// means the spec names none. The binary layout (rather than JSON) is what
// makes the decoder an honest fuzz target: every byte means something.
func EncodeSubmit(r SubmitRequest) []byte {
	w := &wire.Writer{B: make([]byte, 0, 4+1+len(r.Tenant)+36+1+len(r.Spec.Control)+4+1+len(r.Spec.Scenario))}
	w.Bytes(submitMagic)
	putName(w, r.Tenant)
	w.I64(r.Spec.Seed)
	for _, v := range []int{
		r.Spec.DurationSec, r.Spec.Nodes, r.Spec.Users, r.Spec.MaxVDs,
		r.Spec.EventSampleEvery, r.Spec.TraceSampleEvery, r.Spec.Shards,
	} {
		w.I32(int32(v))
	}
	putName(w, r.Spec.Control)
	w.I32(int32(r.Spec.ControlEpochSec))
	putName(w, r.Spec.Scenario)
	return w.B
}

// DecodeSubmit parses a submit frame. A frame either decodes completely —
// magic, tenant, every spec field, no trailing bytes — or not at all; spec
// bounds are enforced later at admission (Validate), name well-formedness
// here, so a hostile frame cannot allocate or run anything.
func DecodeSubmit(b []byte) (SubmitRequest, error) {
	var req SubmitRequest
	r := wire.NewReader(b, ErrWire)
	if string(r.Take(len(submitMagic))) != string(submitMagic) {
		r.Fail("bad submit magic")
	}
	req.Tenant = takeName(r, "tenant", maxTenantLen, false)
	req.Spec.Seed = r.I64()
	for _, p := range []*int{
		&req.Spec.DurationSec, &req.Spec.Nodes, &req.Spec.Users, &req.Spec.MaxVDs,
		&req.Spec.EventSampleEvery, &req.Spec.TraceSampleEvery, &req.Spec.Shards,
	} {
		*p = int(r.I32())
	}
	req.Spec.Control = takeName(r, "control policy", maxControlLen, true)
	req.Spec.ControlEpochSec = int(r.I32())
	req.Spec.Scenario = takeName(r, "scenario", maxScenarioLen, true)
	return req, r.Done()
}

// putName writes a u8-length-prefixed name section.
func putName(w *wire.Writer, s string) {
	w.U8(uint8(len(s)))
	w.Bytes([]byte(s))
}

// takeName reads a u8-length-prefixed name section and holds it to
// checkName; a zero length is an optional section's "none".
func takeName(r *wire.Reader, what string, max int, optional bool) string {
	n := int(r.U8())
	if n == 0 && optional {
		return ""
	}
	s := string(r.Take(n))
	if err := checkName(what, s, max); err != nil {
		r.Fail("%v", err) // a no-op after a short read, which stays the error
	}
	return s
}

// checkName is the one rule for a tenant, control-policy or scenario name,
// in a frame or in-process: 1..max bytes of printable ASCII.
func checkName(what, s string, max int) error {
	if n := len(s); n == 0 || n > max {
		return fmt.Errorf("%s length %d, want [1, %d]", what, n, max)
	}
	for _, c := range s {
		if c < 0x21 || c > 0x7e {
			return fmt.Errorf("%s contains %q", what, c)
		}
	}
	return nil
}

// SnapshotReply is the OpStreamSnapshot answer: where the study is and, once
// it runs, the sketch state of every virtual disk completed so far, as
// ebs.SnapshotSink publishes it. Seq is a monotone progress counter — the
// virtual disks completed; Sketch is sketch.Set binary (empty until the
// first disk completes). SketchFP
// fingerprints exactly the returned state, so a tenant can verify the stream
// converges on the final answer.
type SnapshotReply struct {
	StudyID  uint64
	State    uint8
	Seq      uint64
	VDsDone  uint32
	VDsTotal uint32
	SketchFP string
	Sketch   []byte
}

// EncodeSnapshotReply frames a snapshot:
//
//	"EBG3" | u64 id | u8 state | u64 seq | u32 vdsDone | u32 vdsTotal
//	      | u8 fpLen | fp | u32 sketchLen | sketch
func EncodeSnapshotReply(r SnapshotReply) []byte {
	w := &wire.Writer{B: make([]byte, 0, 4+8+1+8+4+4+1+len(r.SketchFP)+4+len(r.Sketch))}
	w.Bytes(snapMagic)
	w.U64(r.StudyID)
	w.U8(r.State)
	w.U64(r.Seq)
	w.U32(r.VDsDone)
	w.U32(r.VDsTotal)
	w.U8(uint8(len(r.SketchFP)))
	w.Bytes([]byte(r.SketchFP))
	w.U32(uint32(len(r.Sketch)))
	w.Bytes(r.Sketch)
	return w.B
}

// DecodeSnapshotReply parses a snapshot frame, rejecting short bodies,
// oversized length prefixes, and trailing bytes. The sketch bytes are not
// decoded here — the caller hands them to sketch.DecodeSet when it wants the
// state, and that decoder does its own validation.
func DecodeSnapshotReply(b []byte) (SnapshotReply, error) {
	var rep SnapshotReply
	r := wire.NewReader(b, ErrWire)
	if string(r.Take(len(snapMagic))) != string(snapMagic) {
		r.Fail("bad snapshot magic")
	}
	rep.StudyID = r.U64()
	rep.State = r.U8()
	rep.Seq = r.U64()
	rep.VDsDone = r.U32()
	rep.VDsTotal = r.U32()
	rep.SketchFP = string(r.Take(int(r.U8())))
	if sk := r.Take(r.Count(1)); len(sk) > 0 {
		rep.Sketch = append([]byte(nil), sk...)
	}
	return rep, r.Done()
}

// EncodeStudyID frames the request of the ops that name one study —
// OpStudyStatus, OpStreamSnapshot and OpCancelStudy: the study ID as a
// little-endian u64.
func EncodeStudyID(id uint64) []byte {
	var w wire.Writer
	w.U64(id)
	return w.B
}

// DecodeStudyID parses the 8-byte study-ID payload.
func DecodeStudyID(b []byte) (uint64, error) {
	r := wire.NewReader(b, ErrWire)
	id := r.U64()
	return id, r.Done()
}

// --- JSON control messages --------------------------------------------------
//
// The replies to submit, status and cancel, and the per-tenant stats request
// and reply, travel as JSON, matching the fabric's control-plane idiom.

// SubmitReply answers OpSubmitStudy.
type SubmitReply struct {
	StudyID uint64
	State   string
	// Deduped is set when the submission was answered from a completed
	// study with the same normalized spec; StudyID is that study's.
	Deduped bool
}

// StatusReply is the study's full lifecycle view.
type StatusReply struct {
	StudyID  uint64
	Tenant   string
	State    string
	VDsDone  int
	VDsTotal int
	// DatasetFP is the invariant fingerprint of the completed dataset;
	// SketchFP the final streaming-sketch fingerprint. Both empty until
	// the study completes.
	DatasetFP string `json:",omitempty"`
	SketchFP  string `json:",omitempty"`
	Error     string `json:",omitempty"`
	// ControlLogFP fingerprints the mitigation decision log and
	// ControlDecisions counts its entries; both are set only for completed
	// controlled studies (StudySpec.Control non-empty).
	ControlLogFP     string `json:",omitempty"`
	ControlDecisions int    `json:",omitempty"`
}

// CancelReply reports the state the study ended in.
type CancelReply struct {
	State string
}

// StatsRequest asks for one tenant's serving statistics.
type StatsRequest struct {
	Tenant string
}

// TenantStats is a tenant's accounting view: its study ledger and its current
// token balance. The embedded ledger's counters encode inline, between Tenant
// and Tokens. The tenant's grant log is its slice of Gateway.Grants.
type TenantStats struct {
	Tenant string
	invariant.StudyLedger
	Tokens int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("gateway: marshal %T: %v", v, err))
	}
	return b
}

func fromJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %v", ErrWire, err)
	}
	return nil
}
