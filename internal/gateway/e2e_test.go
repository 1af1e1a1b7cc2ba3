package gateway_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// snapProbe hangs one mid-run snapshot capture per study off the gateway's
// progress hook: the first time a study reports partial progress, it grabs a
// streamed snapshot through the serving API. The hook runs on the study's own
// run goroutine with no gateway locks held, so the probe exercises exactly
// the concurrent-read path a live tenant would.
type snapProbe struct {
	gw *gateway.Gateway

	mu    sync.Mutex
	snaps map[uint64]gateway.SnapshotReply
}

func newSnapProbe() *snapProbe {
	return &snapProbe{snaps: make(map[uint64]gateway.SnapshotReply)}
}

func (p *snapProbe) onProgress(study uint64, done, total int) {
	if done < 1 || done >= total {
		return
	}
	p.mu.Lock()
	_, seen := p.snaps[study]
	p.mu.Unlock()
	if seen {
		return
	}
	rep, err := p.gw.Snapshot(study)
	if err != nil || len(rep.Sketch) == 0 {
		return
	}
	p.mu.Lock()
	p.snaps[study] = rep
	p.mu.Unlock()
}

func (p *snapProbe) get(study uint64) (gateway.SnapshotReply, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep, ok := p.snaps[study]
	return rep, ok
}

// pollDone polls a study through the protocol client until it settles.
func pollDone(t *testing.T, cl *gateway.Client, id uint64) gateway.StatusReply {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "canceled":
			t.Fatalf("study %d settled as %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("study %d stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verifySnapshot checks a streamed frame's internal consistency: the carried
// sketch bytes must decode, and their fingerprint must be the fingerprint the
// frame claims — so a tenant can trust any single frame in isolation.
func verifySnapshot(t *testing.T, rep gateway.SnapshotReply) {
	t.Helper()
	if len(rep.Sketch) == 0 || rep.SketchFP == "" {
		t.Fatalf("snapshot frame for study %d carries no sketch", rep.StudyID)
	}
	set, err := sketch.DecodeSet(rep.Sketch)
	if err != nil {
		t.Fatalf("study %d snapshot does not decode: %v", rep.StudyID, err)
	}
	if fp := set.Fingerprint(); fp != rep.SketchFP {
		t.Fatalf("study %d snapshot fingerprint %s, frame claims %s", rep.StudyID, fp, rep.SketchFP)
	}
}

// TestE2EConcurrentTenantsMatchOracle is the headline end-to-end run: three
// tenants push four studies each through a live gateway over loopback,
// concurrently, and every completed study's dataset fingerprint must be
// byte-identical to a direct single-process ebs.Run of the same spec. Each
// study must also serve at least one mid-run streamed snapshot, and the final
// streamed state must converge on the final sketch fingerprint.
func TestE2EConcurrentTenantsMatchOracle(t *testing.T) {
	probe := newSnapProbe()
	h := gatewaytest.Start(gateway.Config{
		MaxConcurrent: 4,
		OnProgress:    probe.onProgress,
	})
	defer h.Close()
	probe.gw = h.GW

	spec := func(seed int64) gateway.StudySpec {
		return gateway.StudySpec{Seed: seed, DurationSec: 1, Nodes: 2, Users: 4, MaxVDs: 6, EventSampleEvery: 4}
	}
	scripts := map[string][]gateway.StudySpec{}
	for ti := 0; ti < 3; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for si := 0; si < 4; si++ {
			scripts[tenant] = append(scripts[tenant], spec(int64(1000+ti*10+si)))
		}
	}
	subs, err := h.RunScripts(scripts)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}
	for tenant, list := range subs {
		if len(list) != 4 {
			t.Fatalf("tenant %s: %d submissions recorded, want 4", tenant, len(list))
		}
		for _, sub := range list {
			if sub.Err != nil {
				t.Fatalf("tenant %s: submit failed: %v", tenant, sub.Err)
			}
			st := pollDone(t, cl, sub.Reply.StudyID)

			oracle, err := gatewaytest.RunOracle(context.Background(), sub.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if st.DatasetFP != oracle.DatasetFP {
				t.Errorf("tenant %s study %d: dataset fingerprint %s, oracle %s",
					tenant, st.StudyID, st.DatasetFP, oracle.DatasetFP)
			}
			if st.SketchFP != oracle.SketchFP {
				t.Errorf("tenant %s study %d: sketch fingerprint %s, oracle %s",
					tenant, st.StudyID, st.SketchFP, oracle.SketchFP)
			}

			mid, ok := probe.get(st.StudyID)
			if !ok {
				t.Fatalf("tenant %s study %d served no mid-run snapshot", tenant, st.StudyID)
			}
			verifySnapshot(t, mid)
			if mid.Seq == 0 {
				t.Errorf("study %d mid-run snapshot has zero sequence", st.StudyID)
			}

			final, err := cl.Snapshot(st.StudyID)
			if err != nil {
				t.Fatal(err)
			}
			verifySnapshot(t, final)
			if final.SketchFP != st.SketchFP {
				t.Errorf("study %d final streamed fingerprint %s diverges from final sketch %s",
					st.StudyID, final.SketchFP, st.SketchFP)
			}
			if final.Seq < mid.Seq {
				t.Errorf("study %d stream went backward: mid seq %d, final seq %d",
					st.StudyID, mid.Seq, final.Seq)
			}
		}
	}

	var rep invariant.Report
	l := h.GW.Ledger()
	invariant.CheckGatewayAccounting(&rep, &l, true)
	if err := rep.Err(); err != nil {
		t.Fatalf("gateway accounting after e2e: %v", err)
	}
	if l.Submitted != 12 || l.Completed != 12 {
		t.Fatalf("ledger %+v, want 12 submitted and completed", l)
	}
}

// TestE2EFabricLeaderKillMatchesOracle runs a study on a 3-replica fabric
// with chaos killing the acting leader mid-study. The surviving replicas must
// finish the study, the kill must actually fire, and the answer must still be
// byte-identical to the single-process oracle — the serving plane's whole
// availability claim in one assertion.
func TestE2EFabricLeaderKillMatchesOracle(t *testing.T) {
	probe := newSnapProbe()
	h := gatewaytest.Start(gateway.Config{
		MaxConcurrent: 1,
		Fabric:        &gateway.FabricConfig{Replicas: 3, Workers: 2},
		OnProgress:    probe.onProgress,
	})
	defer h.Close()
	probe.gw = h.GW

	spec := gateway.StudySpec{
		Seed: 7, DurationSec: 1, Nodes: 2, Users: 4, MaxVDs: 10,
		EventSampleEvery: 4, Shards: 5, LeaderKills: 1,
	}
	cl, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Submit("chaos-tenant", spec)
	if err != nil {
		t.Fatal(err)
	}
	st := pollDone(t, cl, reply.StudyID)
	if st.Kills != 1 {
		t.Fatalf("study %d executed %d leader kills, want 1", st.StudyID, st.Kills)
	}

	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetFP != oracle.DatasetFP {
		t.Fatalf("dataset fingerprint %s, oracle %s (leader kill corrupted the study)", st.DatasetFP, oracle.DatasetFP)
	}
	if st.SketchFP != oracle.SketchFP {
		t.Fatalf("sketch fingerprint %s, oracle %s", st.SketchFP, oracle.SketchFP)
	}

	if mid, ok := probe.get(st.StudyID); ok {
		verifySnapshot(t, mid)
	}
	final, err := cl.Snapshot(st.StudyID)
	if err != nil {
		t.Fatal(err)
	}
	verifySnapshot(t, final)
	if final.SketchFP != st.SketchFP {
		t.Fatalf("final streamed fingerprint %s diverges from final sketch %s", final.SketchFP, st.SketchFP)
	}
}

// TestE2EFabricNoKillMatchesOracle is the control arm: the identical spec on
// the same fabric shape without chaos must land on the identical fingerprints.
func TestE2EFabricNoKillMatchesOracle(t *testing.T) {
	h := gatewaytest.Start(gateway.Config{
		MaxConcurrent: 1,
		Fabric:        &gateway.FabricConfig{Replicas: 3, Workers: 2},
	})
	defer h.Close()

	spec := gateway.StudySpec{
		Seed: 7, DurationSec: 1, Nodes: 2, Users: 4, MaxVDs: 10,
		EventSampleEvery: 4, Shards: 5,
	}
	cl, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Submit("calm-tenant", spec)
	if err != nil {
		t.Fatal(err)
	}
	st := pollDone(t, cl, reply.StudyID)
	if st.Kills != 0 {
		t.Fatalf("no-chaos study executed %d kills", st.Kills)
	}
	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetFP != oracle.DatasetFP || st.SketchFP != oracle.SketchFP {
		t.Fatalf("fabric run diverged from oracle: %s/%s vs %s/%s",
			st.DatasetFP, st.SketchFP, oracle.DatasetFP, oracle.SketchFP)
	}
}

// TestFabricStudyReportsProgress pins the disk counters of a study run on
// the fabric: mid-run Status never claims more disks than the accepted
// shards cover, and once the study is done Status reads N/N and the final
// snapshot's VDsDone equals its Seq. (A fabric study used to report 0/N
// forever — only the in-process path stored the counter.)
func TestFabricStudyReportsProgress(t *testing.T) {
	var h *gatewaytest.Harness
	var mu sync.Mutex
	var overclaims []string
	h = gatewaytest.Start(gateway.Config{
		MaxConcurrent: 1,
		Fabric:        &gateway.FabricConfig{Replicas: 1, Workers: 2},
		OnProgress: func(study uint64, accepted, shards int) {
			if accepted >= shards {
				return
			}
			// Status first: the accepted set only grows, so the snapshot
			// taken after it covers at least what Status saw.
			st, err := h.GW.Status(study)
			if err != nil {
				return
			}
			snap, err := h.GW.Snapshot(study)
			if err != nil {
				return
			}
			if uint64(st.VDsDone) > snap.Seq {
				mu.Lock()
				overclaims = append(overclaims, fmt.Sprintf("Status %d/%d with %d disks covered",
					st.VDsDone, st.VDsTotal, snap.Seq))
				mu.Unlock()
			}
		},
	})
	defer h.Close()

	spec := gateway.StudySpec{
		Seed: 7, DurationSec: 1, Nodes: 2, Users: 4, MaxVDs: 12,
		EventSampleEvery: 4, Shards: 4,
	}
	cl, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := cl.Submit("progress-tenant", spec)
	if err != nil {
		t.Fatal(err)
	}
	st := pollDone(t, cl, reply.StudyID)
	fleet, err := workload.Generate(spec.FleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The shard plan runs heaviest first, so its last range need not end at
	// the run's last disk: the total is the plan's coverage.
	if n := min(spec.MaxVDs, len(fleet.Topology.VDs)); st.VDsTotal != n || st.VDsDone != n {
		t.Fatalf("completed fabric study reports vds=%d/%d, want %d/%d", st.VDsDone, st.VDsTotal, n, n)
	}
	snap, err := cl.Snapshot(reply.StudyID)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(snap.VDsDone) != snap.Seq || int(snap.VDsTotal) != st.VDsTotal || int(snap.VDsDone) != st.VDsTotal {
		t.Fatalf("final snapshot VDsDone=%d VDsTotal=%d Seq=%d, want all %d",
			snap.VDsDone, snap.VDsTotal, snap.Seq, st.VDsTotal)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, o := range overclaims {
		t.Errorf("mid-run: %s", o)
	}
}
