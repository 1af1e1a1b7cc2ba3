package gateway_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/testclock"
)

var update = flag.Bool("update", false, "rewrite the golden contention fixture")

func goldenPath() string {
	return filepath.Join("testdata", "golden", "contention.json")
}

// goldenStudy is one study's terminal record in the fixture.
type goldenStudy struct {
	StudyID   uint64
	State     string
	DatasetFP string
	SketchFP  string
}

// goldenTenant is a tenant's final statistics beside its slice of the
// scheduler's grant log (seconds since the gateway started).
type goldenTenant struct {
	gateway.TenantStats
	GrantsAtSec []float64 `json:",omitempty"`
}

// goldenContention freezes the full observable outcome of the scripted
// two-tenant contention run: every admission decision in arrival order, the
// scheduler's grant log with virtual timestamps, both tenants' final
// statistics, and each study's fingerprints. Any change to admission,
// weighted-fair dequeue, token pacing, dedup, or the engine itself shows up
// as a fixture diff.
type goldenContention struct {
	Admissions []gateway.Admission
	Grants     []gateway.Grant
	Alice      goldenTenant
	Bob        goldenTenant
	Studies    map[string]goldenStudy
}

// settleGolden waits for the scripted gateway to go quiescent at a known
// grant count: with the fake clock frozen, no further grants are possible
// once every token is spent, so (grants, running==0) is a fixed point.
func settleGolden(t *testing.T, gw *gateway.Gateway, wantGrants int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if l := gw.Ledger(); len(gw.Grants()) >= wantGrants && l.Running == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("gateway did not settle at %d grants: ledger %+v, %d grants",
		wantGrants, gw.Ledger(), len(gw.Grants()))
}

// TestGoldenContention runs the canonical two-tenant contention script on a
// fake clock and compares every observable against the committed fixture.
// The script: alice (weight 2) floods four studies into a one-slot gateway
// with a 1/sec-per-tenant cap and a three-deep admission bound — her fifth
// submission is rejected — while bob (weight 1) queues two; the clock then
// advances a second at a time until everything drains, and bob finally
// re-submits alice's first spec, which dedups against the stored result.
//
// After an intentional behavior change:
//
//	go test ./internal/gateway -run TestGoldenContention -update
func TestGoldenContention(t *testing.T) {
	clock := testclock.AtUnix(2000)
	gw := gateway.New(gateway.Config{
		Now:                clock.Now,
		MaxConcurrent:      1,
		SubmitRate:         1,
		SubmitBurst:        1,
		MaxQueuedPerTenant: 3,
		WeightOf:           map[string]float64{"alice": 2, "bob": 1},
	})
	defer gw.Close()

	spec := func(seed int64) gateway.StudySpec {
		return gateway.StudySpec{Seed: seed, DurationSec: 1, Nodes: 1, Users: 2, MaxVDs: 2, EventSampleEvery: 32}
	}

	ids := map[string]uint64{}
	submit := func(label, tenant string, s gateway.StudySpec) {
		t.Helper()
		reply, err := gw.Submit(tenant, s)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ids[label] = reply.StudyID
	}

	// t=0: alice floods. a1 takes her banked token and the only run slot;
	// a2-a4 queue; a5 hits the admission bound.
	submit("a1", "alice", spec(301))
	submit("a2", "alice", spec(302))
	submit("a3", "alice", spec(303))
	submit("a4", "alice", spec(304))
	if _, err := gw.Submit("alice", spec(305)); err == nil {
		t.Fatal("alice's fifth submission should be rejected at the admission bound")
	}
	// t=0: bob queues two behind the busy slot.
	submit("b1", "bob", spec(311))
	submit("b2", "bob", spec(312))
	settleGolden(t, gw, 2) // a1 then b1 drain the banked tokens

	for _, grants := range []int{4, 5, 6} {
		clock.Advance(time.Second)
		gw.Poke()
		settleGolden(t, gw, grants)
	}

	// Re-submitting a completed spec — from the other tenant — dedups.
	dedup, err := gw.Submit("bob", spec(301))
	if err != nil {
		t.Fatal(err)
	}
	if !dedup.Deduped || dedup.StudyID != ids["a1"] {
		t.Fatalf("dedup reply %+v, want a1's study %d", dedup, ids["a1"])
	}

	got := goldenContention{
		Admissions: gw.Admissions(),
		Grants:     gw.Grants(),
		Studies:    map[string]goldenStudy{},
	}
	for _, tn := range []struct {
		name string
		out  *goldenTenant
	}{{"alice", &got.Alice}, {"bob", &got.Bob}} {
		if tn.out.TenantStats, err = gw.Stats(tn.name); err != nil {
			t.Fatal(err)
		}
		for _, g := range got.Grants {
			if g.Tenant == tn.name {
				tn.out.GrantsAtSec = append(tn.out.GrantsAtSec, g.AtSec)
			}
		}
	}
	for label, id := range ids {
		st, err := gw.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		got.Studies[label] = goldenStudy{StudyID: id, State: st.State, DatasetFP: st.DatasetFP, SketchFP: st.SketchFP}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden contention fixture updated: %s", goldenPath())
		return
	}
	raw, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update to create): %v", err)
	}
	var want goldenContention
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden fixture does not parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		gotBuf, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("contention run drifted from the golden fixture.\n got: %s\n(after an intentional change: go test ./internal/gateway -run TestGoldenContention -update)", gotBuf)
	}
}
