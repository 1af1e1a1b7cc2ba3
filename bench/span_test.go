package main

import (
	"math"
	"testing"
	"time"
)

// checkSpanTree holds a recorded span set to the tree laws: every span is
// closed, a parent exists, shares the study and encloses its children, and
// no self time is negative.
func checkSpanTree(t *testing.T, spans []span) {
	t.Helper()
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimesNS(spans)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %d %s ends before it starts (or never ended)", s.ID, s.Name)
		}
		if self[s.ID] < 0 {
			t.Errorf("span %d %s has self time %d ns", s.ID, s.Name, self[s.ID])
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s names a missing parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %d %s [%d,%d] is not enclosed by its parent %s [%d,%d]", s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
		if s.Study != p.Study {
			t.Errorf("span %d %s is of study %d, its parent of study %d", s.ID, s.Name, s.Study, p.Study)
		}
	}
}

// TestSpanTree records a real traced study — the control workload driving
// its four passes one after the other — and checks that parents enclose
// children, self times are non-negative, and the self times of the tree sum
// to the root's duration within 1%.
func TestSpanTree(t *testing.T) {
	bw, _ := findWorkload("control")
	p, err := bw.prepare(7)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	if _, err := p.run(rec, 1); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	checkSpanTree(t, spans)
	names := map[string]bool{}
	var root span
	var total int64
	for id, ns := range selfTimesNS(spans) {
		total += ns
		s := spans[id-1]
		names[s.Name] = true
		if s.Parent == 0 {
			root = s
		}
	}
	for _, want := range []string{"study", "control.observe", "control.plan", "control.act"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
	if gap := math.Abs(float64(total-root.durNS())) / float64(root.durNS()); gap > 0.01 {
		t.Errorf("self times sum to %d ns, the root lasts %d ns: %.2f%% apart", total, root.durNS(), 100*gap)
	}
}

// TestSelfTimeParallelChildren: two children running side by side cover
// their parent's interval once, not twice.
func TestSelfTimeParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "worker-a", StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 1, Name: "worker-b", StartNS: 30, EndNS: 90},
	}
	self := selfTimesNS(spans)
	if self[1] != 20 {
		t.Errorf("root self time %d, want 100 - |[10,90]| = 20", self[1])
	}
	if self[2] != 60 || self[3] != 60 {
		t.Errorf("leaf self times %d and %d, want their durations", self[2], self[3])
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var none *recorder
	if id := none.start("x", 0, 0); id != 0 || none.end(id) != 0 {
		t.Error("a nil recorder recorded something")
	}
	rec := newRecorder()
	outer := rec.start("outer", 0, 7)
	inner := rec.start("inner", outer, 7)
	time.Sleep(time.Millisecond)
	if ms := rec.end(inner); ms < 1 {
		t.Errorf("inner span lasted %v ms, slept 1", ms)
	}
	rec.end(outer)
	checkSpanTree(t, rec.snapshot())
}

// TestUnattributedNotClamped: when the layers cost more alone than the
// engine's whole CPU, ebs.unattributed_ms is negative and says so.
func TestUnattributedNotClamped(t *testing.T) {
	if got := unattributedMS(150, 183.5); got != -33.5 {
		t.Errorf("unattributed %v, want -33.5 reported as measured", got)
	}
	if got := unattributedMS(150, 100); got != 50 {
		t.Errorf("unattributed %v, want 50", got)
	}
}

func TestMakespan(t *testing.T) {
	// Workers pull shards in plan order: a {3,3,1,1} plan on two workers
	// ends at 4, not at the sum 8 nor at the longest shard 3.
	if got := makespan([]float64{3, 3, 1, 1}, 2); got != 4 {
		t.Errorf("makespan %v, want 4", got)
	}
	if got := makespan([]float64{5}, 2); got != 5 {
		t.Errorf("makespan %v, want 5", got)
	}
}
