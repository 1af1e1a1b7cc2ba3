package throttle

import (
	"math/rand"
	"reflect"
	"testing"
)

func synthGroup(seed int64, n, dur int) ([]Caps, [][]Demand) {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]Caps, n)
	demand := make([][]Demand, n)
	for vd := range caps {
		caps[vd] = Caps{
			Tput: float64(rng.Intn(200)+50) * 1e6,
			IOPS: float64(rng.Intn(4000) + 500),
		}
		demand[vd] = make([]Demand, dur)
		for t := range demand[vd] {
			d := &demand[vd][t]
			d.ReadBps = rng.Float64() * 3e8
			d.WriteBps = rng.Float64() * 3e8
			d.ReadIOPS = rng.Float64() * 6000
			d.WriteIOPS = rng.Float64() * 6000
		}
	}
	return caps, demand
}

// replay runs one Replay on a fresh Scratch, so the Result aliases nothing
// another call will overwrite.
func replay(caps []Caps, demand [][]Demand, r Replay) (Result, []string) {
	return new(Scratch).Replay(caps, demand, r)
}

// withLending is replay under a lending policy alone.
func withLending(caps []Caps, demand [][]Demand, l Lending) Result {
	res, _ := replay(caps, demand, Replay{Lend: &l})
	return res
}

// TestScratchSimulateEquivalence runs several different-shaped groups
// through one Scratch and requires each result to match the allocating
// path exactly — including after the scratch has been dirtied by prior
// calls of other sizes.
func TestScratchSimulateEquivalence(t *testing.T) {
	var sc Scratch
	shapes := []struct{ n, dur int }{{4, 60}, {1, 10}, {8, 120}, {3, 0}, {4, 60}}
	for i, sh := range shapes {
		caps, demand := synthGroup(int64(i+1), sh.n, sh.dur)
		got := sc.Simulate(caps, demand)
		want := new(Scratch).Simulate(caps, demand)
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("shape %d (%d vds, %d s): scratch result diverged", i, sh.n, sh.dur)
		}
	}
}

// normalize maps empty-but-non-nil slices to nil so DeepEqual compares
// values, not buffer provenance.
func normalize(r Result) Result {
	if len(r.Events) == 0 {
		r.Events = nil
	}
	rows := make([][]float64, len(r.QueueDelaySec))
	for i, row := range r.QueueDelaySec {
		if len(row) > 0 {
			rows[i] = row
		}
	}
	r.QueueDelaySec = rows
	return r
}

// TestScratchSimulateAllocs pins the steady-state allocation count of the
// scratch path at zero once the buffers have warmed up.
func TestScratchSimulateAllocs(t *testing.T) {
	var sc Scratch
	caps, demand := synthGroup(7, 6, 90)
	sc.Simulate(caps, demand) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		sc.Simulate(caps, demand)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.Simulate allocated %.1f times per run, want 0", allocs)
	}
}

// TestReplayZeroValueIsSimulate holds every Replay that adds nothing to the
// plain one — the zero value, the audit alone, a schedule that leaves the
// caps alone, a crash schedule with nobody down — to Simulate's Result, and
// a schedule that halves the caps to Simulate over halved caps; none of them
// may report an audit violation.
func TestReplayZeroValueIsSimulate(t *testing.T) {
	caps, demand := synthGroup(3, 5, 80)
	half := make([]Caps, len(caps))
	for i, c := range caps {
		half[i] = Caps{Tput: c.Tput / 2, IOPS: c.IOPS / 2}
	}
	for _, tc := range []struct {
		name string
		r    Replay
		want Result
	}{
		{"zero", Replay{}, new(Scratch).Simulate(caps, demand)},
		{"audited", Replay{Audit: true}, new(Scratch).Simulate(caps, demand)},
		{"scheduled-identity", Replay{CapsAt: func(int, []Caps) {}}, new(Scratch).Simulate(caps, demand)},
		{"scheduled-halved-audited", Replay{CapsAt: func(_ int, eff []Caps) { copy(eff, half) }, Audit: true}, new(Scratch).Simulate(half, demand)},
	} {
		got, msgs := replay(caps, demand, tc.r)
		if !reflect.DeepEqual(normalize(got), normalize(tc.want)) {
			t.Errorf("%s: Result diverged from Simulate", tc.name)
		}
		if len(msgs) != 0 {
			t.Errorf("%s: audit violations: %v", tc.name, msgs)
		}
	}
}

// TestReplayRejectsScheduleWithLending: a cap schedule already encodes its
// grants, so combining it with in-group lending is a caller bug.
func TestReplayRejectsScheduleWithLending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CapsAt with Lend should panic")
		}
	}()
	replay(nil, nil, Replay{CapsAt: func(int, []Caps) {}, Lend: &Lending{Rate: 0.5}})
}

// TestScratchAuditedReplayAllocs pins check-mode replay, plain and
// scheduled, through a reused Scratch at zero allocations once warm — the
// engine's check-mode arms run on the shard's Scratch like the others.
func TestScratchAuditedReplayAllocs(t *testing.T) {
	var sc Scratch
	caps, demand := synthGroup(7, 6, 90)
	for _, r := range []Replay{
		{Audit: true},
		{Audit: true, CapsAt: func(_ int, eff []Caps) { eff[0].Tput *= 2 }},
	} {
		sc.Replay(caps, demand, r) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			if _, msgs := sc.Replay(caps, demand, r); len(msgs) != 0 {
				t.Fatalf("audit violations: %v", msgs)
			}
		})
		if allocs != 0 {
			t.Fatalf("audited Scratch.Replay (scheduled=%v) allocated %.1f times per run, want 0", r.CapsAt != nil, allocs)
		}
	}
}
