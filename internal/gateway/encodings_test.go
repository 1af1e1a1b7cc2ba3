package gateway

import (
	"testing"

	"ebslab/internal/wire/wiretest"
)

// TestEncodingsUnchanged pins the EBG4 submit frame (with and without each
// optional section), the EBG3 snapshot reply and the study-ID request to the
// bytes the encoders emitted when each layout was captured.
func TestEncodingsUnchanged(t *testing.T) {
	spec := StudySpec{
		Seed: -7, DurationSec: 8, Nodes: 4, Users: 16, MaxVDs: 100,
		EventSampleEvery: 8, TraceSampleEvery: 1, Shards: 5,
	}
	submit := func(name string, edit func(*StudySpec)) {
		s := spec
		edit(&s)
		wiretest.CheckEncoding(t, name, EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: s}))
	}
	submit("ebg4-plain", func(*StudySpec) {})
	submit("ebg4-control", func(s *StudySpec) { s.Control, s.ControlEpochSec = "predictive-holt", 2 })
	submit("ebg4-scenario", func(s *StudySpec) { s.Scenario = "bufferbloat,period=8" })
	submit("ebg4-control-scenario", func(s *StudySpec) {
		s.Control, s.ControlEpochSec, s.Scenario = "reactive", 1, "elastic,hi=2,step=3"
	})
	wiretest.CheckEncoding(t, "ebg3", EncodeSnapshotReply(SnapshotReply{
		StudyID: 9, State: StateRunning, Seq: 3, VDsDone: 7, VDsTotal: 20,
		SketchFP: "sha256:abcdef", Sketch: []byte{1, 2, 3, 0, 255},
	}))
	wiretest.CheckEncoding(t, "ebg3-empty", EncodeSnapshotReply(SnapshotReply{StudyID: 1, State: StateQueued}))
	wiretest.CheckEncoding(t, "snapshot-request", EncodeStudyID(0x0102030405060708))
}
