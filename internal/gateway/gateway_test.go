package gateway

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ebslab/internal/invariant"
	"ebslab/internal/testclock"
)

// tinySpec is the smallest study the scheduler tests run: scheduling
// behavior is the subject, the simulation just has to finish quickly.
// Distinct seeds keep content addresses distinct (no accidental dedup).
func tinySpec(seed int64) StudySpec {
	return StudySpec{Seed: seed, DurationSec: 1, Nodes: 1, Users: 2, MaxVDs: 2, EventSampleEvery: 32}
}

// settle polls until the gateway has issued wantGrants grants and has no
// running study — the quiescent point between fake-clock advances.
func settle(t *testing.T, gw *Gateway, wantGrants int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		l := gw.Ledger()
		if len(gw.Grants()) >= wantGrants && l.Running == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("gateway did not settle at %d grants: ledger %+v, grants %d",
		wantGrants, gw.Ledger(), len(gw.Grants()))
}

func checkLaws(t *testing.T, gw *Gateway, drained bool) {
	t.Helper()
	if err := gw.CheckLaws(drained); err != nil {
		t.Fatalf("gateway laws: %v", err)
	}
}

func TestSpecKeyNormalization(t *testing.T) {
	zero := StudySpec{Seed: 9}
	spelled := StudySpec{Seed: 9, DurationSec: 8, Nodes: 4, Users: 16, EventSampleEvery: 8, TraceSampleEvery: 1}
	if zero.withDefaults() != spelled.withDefaults() {
		t.Fatal("defaulted and spelled-out specs should dedup as one spec")
	}
	if zero.withDefaults() == (StudySpec{Seed: 10}).withDefaults() {
		t.Fatal("different seeds should dedup separately")
	}
}

func TestSubmitValidation(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{Now: clock.Now})
	defer gw.Close()

	if _, err := gw.Submit("", tinySpec(1)); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, err := gw.Submit(strings.Repeat("x", 65), tinySpec(1)); err == nil {
		t.Error("oversized tenant name accepted")
	}
	// In-process and over the wire, one rule refuses a tenant name in the
	// same words.
	for _, name := range []string{"a b", "a\x01"} {
		want := checkName("tenant", name, maxTenantLen)
		_, subErr := gw.Submit(name, tinySpec(1))
		_, wireErr := DecodeSubmit(EncodeSubmit(SubmitRequest{Tenant: name, Spec: tinySpec(1)}))
		if want == nil || subErr == nil || wireErr == nil ||
			!strings.HasSuffix(subErr.Error(), ": "+want.Error()) || !strings.HasSuffix(wireErr.Error(), ": "+want.Error()) {
			t.Errorf("tenant %q: Submit %v, DecodeSubmit %v, want both to end in %v", name, subErr, wireErr, want)
		}
	}
	if _, err := gw.Submit("t", StudySpec{Seed: 1, DurationSec: -1}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := gw.Submit("t", StudySpec{Seed: 1, Nodes: maxNodes + 1}); err == nil {
		t.Error("oversized node count accepted")
	}
	if l := gw.Ledger(); l != (invariant.StudyLedger{}) {
		t.Fatalf("validation failures should not touch the ledger: %+v", l)
	}
}

// TestLeaderKillStudyIsRefused: leader kills are retired — the fabric has one
// coordinator — but the submit frame keeps their slot. A spec that sets it is
// refused at Submit, before any tenant or ledger counter exists, with the
// error naming the retired field.
func TestLeaderKillStudyIsRefused(t *testing.T) {
	gw := New(Config{Now: testclock.AtUnix(1000).Now})
	defer gw.Close()
	for _, spec := range []StudySpec{{Seed: 1, LeaderKills: 1}, {Seed: 1, LeaderKills: 1, Shards: 5}} {
		_, err := gw.Submit("t", spec)
		if err == nil || !strings.Contains(err.Error(), "LeaderKills") || !strings.Contains(err.Error(), "retired") {
			t.Errorf("spec %+v: Submit answered %v, want a refusal naming the retired LeaderKills", spec, err)
		}
	}
	if l := gw.Ledger(); l != (invariant.StudyLedger{}) {
		t.Fatalf("refused leader-kill studies touched the ledger: %+v", l)
	}
	if _, err := gw.Stats("t"); err == nil {
		t.Fatal("a refused submission registered its tenant")
	}
}

// TestWFQFairness pins the weighted-fair dequeue order. A blocker study holds
// the only run slot while tenants "a" (weight 2) and "b" (weight 1) each
// backlog 6 studies; the stride scheduler must then drain the static backlog
// in the exact virtual-time order, giving a twice b's share while both are
// backlogged.
func TestWFQFairness(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{
		Now:           clock.Now,
		MaxConcurrent: 1,
		WeightOf:      map[string]float64{"a": 2, "b": 1},
	})
	defer gw.Close()

	// The blocker is deliberately heavier than the tiny backlog studies so
	// the 12 in-memory submissions below land while it still runs.
	if _, err := gw.Submit("zz", StudySpec{Seed: 999, DurationSec: 4, Nodes: 2, Users: 8, MaxVDs: 20, EventSampleEvery: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := gw.Submit("a", tinySpec(int64(100+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := gw.Submit("b", tinySpec(int64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, gw, 13)

	got := make([]string, 0, 12)
	for _, g := range gw.Grants()[1:] {
		got = append(got, g.Tenant)
	}
	want := []string{"a", "b", "a", "a", "b", "a", "a", "b", "a", "b", "b", "b"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("WFQ grant order:\n got %v\nwant %v", got, want)
	}
	checkLaws(t, gw, true)
}

// TestRateCapQueuesNotDrops pins the cap discipline: a tenant submitting
// faster than its token bucket refills has the excess QUEUED, not rejected,
// and the grant log obeys the pacing law exactly. It also runs CheckLaws on
// the capped gateway live and drained, and on a forged grant log.
func TestRateCapQueuesNotDrops(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{
		Now:           clock.Now,
		MaxConcurrent: 4,
		SubmitRate:    1,
		SubmitBurst:   2,
	})
	defer gw.Close()

	for i := 0; i < 4; i++ {
		if _, err := gw.Submit("t", tinySpec(int64(10+i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, err := gw.Stats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted != 2 || st.Queued != 2 || st.Rejected != 0 {
		t.Fatalf("after burst: granted %d queued %d rejected %d, want 2/2/0",
			st.Granted, st.Queued, st.Rejected)
	}
	// Two studies wait on the bucket: the laws hold on the live gateway, and
	// a drained reading counts the waiting studies as leaked.
	checkLaws(t, gw, false)
	if err := gw.CheckLaws(true); err == nil || !strings.Contains(err.Error(), "tenant t: drained gateway still holds 2 queued studies") {
		t.Fatalf("CheckLaws(true) with 2 studies queued = %v, want a leaked-job violation", err)
	}

	clock.Advance(time.Second)
	gw.Poke()
	settle(t, gw, 3)
	clock.Advance(time.Second)
	gw.Poke()
	settle(t, gw, 4)

	var grantsAt []float64
	for _, g := range gw.Grants() {
		if g.Tenant == "t" {
			grantsAt = append(grantsAt, g.AtSec)
		}
	}
	if wantAt := []float64{0, 0, 1, 2}; !slices.Equal(grantsAt, wantAt) {
		t.Fatalf("grant log %v, want %v", grantsAt, wantAt)
	}
	checkLaws(t, gw, true)

	// A grant the bucket could not have paid for breaks the pacing law.
	gw.mu.Lock()
	gw.grants = append(gw.grants, Grant{Tenant: "t", AtSec: 2})
	gw.mu.Unlock()
	if err := gw.CheckLaws(true); err == nil || !strings.Contains(err.Error(), "gateway/pacing") {
		t.Fatalf("CheckLaws after a forged grant = %v, want a gateway/pacing violation", err)
	}
}

// TestAdmissionRejectsDeepQueue pins the admission bound: submissions beyond
// MaxQueuedPerTenant are rejected with an error and counted, while everything
// under the bound queues.
func TestAdmissionRejectsDeepQueue(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{
		Now:                clock.Now,
		SubmitRate:         0.001, // first grant consumes the banked token; refill is far away
		SubmitBurst:        1,
		MaxQueuedPerTenant: 2,
	})
	defer gw.Close()

	if _, err := gw.Submit("t", tinySpec(1)); err != nil { // granted
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // queued
		if _, err := gw.Submit("t", tinySpec(int64(2+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gw.Submit("t", tinySpec(9)); err == nil {
		t.Fatal("submission over the admission bound accepted")
	}
	st, _ := gw.Stats("t")
	l := st.StudyLedger
	if l.Rejected != 1 || l.Submitted != 3 {
		t.Fatalf("rejected %d submitted %d, want 1/3", l.Rejected, l.Submitted)
	}
	adms := gw.Admissions()
	if adms[len(adms)-1].Decision != "rejected" {
		t.Fatalf("last admission %+v, want rejected", adms[len(adms)-1])
	}
}

// TestDedup pins content-addressed result reuse: re-submitting a completed
// spec — from any tenant — is answered from the stored study without running
// anything.
func TestDedup(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{Now: clock.Now})
	defer gw.Close()

	spec := tinySpec(77)
	first, err := gw.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	settle(t, gw, 1)
	st, err := gw.Status(first.StudyID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.DatasetFP == "" || st.SketchFP == "" {
		t.Fatalf("first study did not complete cleanly: %+v", st)
	}

	again, err := gw.Submit("bob", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.StudyID != first.StudyID {
		t.Fatalf("dedup reply %+v, want Deduped for study %d", again, first.StudyID)
	}
	if l := gw.Ledger(); l.Deduped != 1 || l.Submitted != 1 {
		t.Fatalf("ledger %+v, want Deduped 1 / Submitted 1", l)
	}
	ts, _ := gw.Stats("bob")
	bl := ts.StudyLedger
	if bl.Deduped != 1 || bl.Submitted != 0 {
		t.Fatalf("bob's ledger %+v, want only the dedup", bl)
	}
	checkLaws(t, gw, true)
}

func TestCancelQueued(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{Now: clock.Now, SubmitRate: 0.001, SubmitBurst: 1})
	defer gw.Close()

	if _, err := gw.Submit("t", tinySpec(1)); err != nil { // granted
		t.Fatal(err)
	}
	queued, err := gw.Submit("t", tinySpec(2)) // gated behind the bucket
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gw.Cancel(queued.StudyID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != "canceled" {
		t.Fatalf("cancel reply %+v, want canceled", rep)
	}
	st, _ := gw.Stats("t")
	l := st.StudyLedger
	if l.CanceledQueued != 1 || l.Queued != 0 {
		t.Fatalf("ledger %+v, want CanceledQueued 1 / Queued 0", l)
	}
	settle(t, gw, 1)
	checkLaws(t, gw, true)
}

func TestCancelRunning(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{Now: clock.Now})
	defer gw.Close()

	// Big enough that the cancel lands mid-run.
	reply, err := gw.Submit("t", StudySpec{Seed: 5, DurationSec: 8, Nodes: 4, Users: 16, EventSampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Cancel(reply.StudyID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := gw.Status(reply.StudyID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "canceled" {
			break
		}
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("canceled study settled as %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("study stuck in %s after cancel", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	l := gw.Ledger()
	if l.CanceledRunning != 1 {
		t.Fatalf("ledger %+v, want CanceledRunning 1", l)
	}
	checkLaws(t, gw, true)
}

// TestCloseCancelsEverything pins shutdown semantics: queued studies settle
// as canceled-queued, running studies as canceled-running, and Close returns
// only once every run goroutine is gone.
func TestCloseCancelsEverything(t *testing.T) {
	clock := testclock.AtUnix(1000)
	gw := New(Config{Now: clock.Now, MaxConcurrent: 1})

	if _, err := gw.Submit("t", StudySpec{Seed: 6, DurationSec: 8, Nodes: 4, Users: 16, EventSampleEvery: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Submit("t", tinySpec(7)); err != nil { // queued behind the slot
		t.Fatal(err)
	}
	gw.Close()
	if _, err := gw.Submit("t", tinySpec(8)); err == nil {
		t.Fatal("closed gateway accepted a submission")
	}
	l := gw.Ledger()
	if l.CanceledQueued != 1 || l.CanceledRunning != 1 || l.Queued != 0 || l.Running != 0 {
		t.Fatalf("ledger after close %+v", l)
	}
	checkLaws(t, gw, true)
}

func TestStatusUnknownStudy(t *testing.T) {
	gw := New(Config{Now: testclock.AtUnix(0).Now})
	defer gw.Close()
	if _, err := gw.Status(404); err == nil {
		t.Fatal("unknown study ID answered")
	}
	if _, err := gw.Snapshot(404); err == nil {
		t.Fatal("unknown study snapshot answered")
	}
	if _, err := gw.Cancel(404); err == nil {
		t.Fatal("unknown study cancel answered")
	}
	if _, err := gw.Stats("ghost"); err == nil {
		t.Fatal("unknown tenant stats answered")
	}
}
