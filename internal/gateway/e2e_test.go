package gateway_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
	"ebslab/internal/sketch"
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

	if err := h.GW.CheckLaws(true); err != nil {
		t.Fatalf("gateway laws after e2e: %v", err)
	}
	if l := h.GW.Ledger(); l.Submitted != 12 || l.Completed != 12 {
		t.Fatalf("ledger %+v, want 12 submitted and completed", l)
	}
}

// TestE2EShardedSpecMatchesOracle: a shard count is a fabric dimension, and a
// gateway runs every study in-process, so a spec carrying one is served like
// any other and answers exactly its oracle.
func TestE2EShardedSpecMatchesOracle(t *testing.T) {
	h := gatewaytest.Start(gateway.Config{MaxConcurrent: 1})
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
	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetFP != oracle.DatasetFP || st.SketchFP != oracle.SketchFP {
		t.Fatalf("sharded spec diverged from oracle: %s/%s vs %s/%s",
			st.DatasetFP, st.SketchFP, oracle.DatasetFP, oracle.SketchFP)
	}
}
