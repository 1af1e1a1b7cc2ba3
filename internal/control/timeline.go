package control

import (
	"fmt"

	"ebslab/internal/cluster"
)

// Timeline is the compiled output of a control run: for every epoch, the
// placement row, QP→WT binding row, migration-landing bitset, and throttle
// cap deltas the engine should apply to IOs falling in that epoch. The
// engine consumes it with pure lookups — no RNG, no allocation — so applying
// a timeline never perturbs the generator's draws, and an empty timeline is
// arithmetically invisible (the no-op identity the metamorphic suite pins).
//
// Rows are copy-on-write snapshots: a nil row means "use the run's base
// state", and consecutive epochs whose state did not change alias the same
// slice. Only the controller writes a timeline; the engine treats it as
// immutable.
type Timeline struct {
	// EpochSec and DurSec mirror the observation shape that produced the
	// timeline, so EpochOf agrees between passes.
	EpochSec int
	DurSec   int

	bs    [][]cluster.StorageNodeID // [epoch] full placement, nil = base
	wt    [][]int8                  // [epoch] per-QP WT binding, nil = base
	moved [][]uint64                // [epoch] landing bitset over segments, nil = none
	lendT [][]float64               // [epoch] per-VD throughput cap delta, nil = none
	lendI [][]float64               // [epoch] per-VD IOPS cap delta, nil = none
}

// NewTimeline allocates an empty timeline over the window.
func NewTimeline(epochSec, durSec int) *Timeline {
	n := epochs(epochSec, durSec)
	return &Timeline{
		EpochSec: epochSec,
		DurSec:   durSec,
		bs:       make([][]cluster.StorageNodeID, n),
		wt:       make([][]int8, n),
		moved:    make([][]uint64, n),
		lendT:    make([][]float64, n),
		lendI:    make([][]float64, n),
	}
}

func epochs(epochSec, durSec int) int {
	if epochSec <= 0 || durSec <= 0 {
		return 0
	}
	return (durSec + epochSec - 1) / epochSec
}

// Epochs returns the number of epochs the timeline spans.
func (t *Timeline) Epochs() int { return len(t.bs) }

// EpochOf maps a simulated second to its epoch, clamped into range.
func (t *Timeline) EpochOf(sec int) int {
	ep := sec / t.EpochSec
	if max := len(t.bs) - 1; ep > max {
		ep = max
	}
	if ep < 0 {
		ep = 0
	}
	return ep
}

// Empty reports whether the timeline carries no actuation at all; the engine
// skips per-IO lookups entirely for an empty timeline.
func (t *Timeline) Empty() bool {
	for ep := range t.bs {
		if t.bs[ep] != nil || t.wt[ep] != nil || t.moved[ep] != nil ||
			t.lendT[ep] != nil || t.lendI[ep] != nil {
			return false
		}
	}
	return true
}

// BSRow returns epoch ep's placement row (nil: base placement).
func (t *Timeline) BSRow(ep int) []cluster.StorageNodeID { return t.bs[ep] }

// WTRow returns epoch ep's QP→WT binding row (nil: base binding).
func (t *Timeline) WTRow(ep int) []int8 { return t.wt[ep] }

// MovedAt reports whether segment seg lands on a new BS during epoch ep.
func (t *Timeline) MovedAt(ep int, seg int) bool {
	row := t.moved[ep]
	if row == nil {
		return false
	}
	return row[seg>>6]&(1<<(uint(seg)&63)) != 0
}

// LendTput returns epoch ep's per-VD throughput cap deltas (nil: none).
func (t *Timeline) LendTput(ep int) []float64 { return t.lendT[ep] }

// LendIOPS returns epoch ep's per-VD IOPS cap deltas (nil: none).
func (t *Timeline) LendIOPS(ep int) []float64 { return t.lendI[ep] }

// VDLends reports whether any epoch carries a cap delta for VD vd; the
// engine routes such VDs through the scheduled-caps throttle path.
func (t *Timeline) VDLends(vd int) bool {
	for ep := range t.lendT {
		if r := t.lendT[ep]; r != nil && r[vd] != 0 {
			return true
		}
		if r := t.lendI[ep]; r != nil && r[vd] != 0 {
			return true
		}
	}
	return false
}

// setPlacement installs placement row for epochs [ep, end). The row is
// aliased, not copied: the controller clones before the next mutation.
func (t *Timeline) setPlacement(ep int, row []cluster.StorageNodeID) {
	for e := ep; e < len(t.bs); e++ {
		t.bs[e] = row
	}
}

// setBinding installs QP→WT binding row for epochs [ep, end).
func (t *Timeline) setBinding(ep int, row []int8) {
	for e := ep; e < len(t.wt); e++ {
		t.wt[e] = row
	}
}

// markMoved records segment seg as landing during epoch ep.
func (t *Timeline) markMoved(ep, seg, nSegments int) {
	if t.moved[ep] == nil {
		t.moved[ep] = make([]uint64, (nSegments+63)/64)
	}
	t.moved[ep][seg>>6] |= 1 << (uint(seg) & 63)
}

// addLend accumulates a cap delta for VD vd during epoch ep.
func (t *Timeline) addLend(ep, vd, nVDs int, tput, iops float64) {
	if tput != 0 {
		if t.lendT[ep] == nil {
			t.lendT[ep] = make([]float64, nVDs)
		}
		t.lendT[ep][vd] += tput
	}
	if iops != 0 {
		if t.lendI[ep] == nil {
			t.lendI[ep] = make([]float64, nVDs)
		}
		t.lendI[ep][vd] += iops
	}
}

// Validate rejects timelines whose rows cannot index the run's entities.
func (t *Timeline) Validate(nSegments, nQPs, nVDs int) error {
	if t.EpochSec <= 0 || t.DurSec <= 0 {
		return fmt.Errorf("control: timeline window %ds/%ds, want > 0", t.EpochSec, t.DurSec)
	}
	if got := epochs(t.EpochSec, t.DurSec); got != len(t.bs) {
		return fmt.Errorf("control: timeline has %d epochs, window implies %d", len(t.bs), got)
	}
	for ep := range t.bs {
		if r := t.bs[ep]; r != nil && len(r) != nSegments {
			return fmt.Errorf("control: epoch %d placement row has %d segments, fleet has %d", ep, len(r), nSegments)
		}
		if r := t.wt[ep]; r != nil && len(r) != nQPs {
			return fmt.Errorf("control: epoch %d binding row has %d QPs, fleet has %d", ep, len(r), nQPs)
		}
		if r := t.moved[ep]; r != nil && len(r) != (nSegments+63)/64 {
			return fmt.Errorf("control: epoch %d moved bitset sized for %d words, want %d", ep, len(r), (nSegments+63)/64)
		}
		for _, lr := range [][]float64{t.lendT[ep], t.lendI[ep]} {
			if lr != nil && len(lr) != nVDs {
				return fmt.Errorf("control: epoch %d lend row has %d VDs, fleet has %d", ep, len(lr), nVDs)
			}
		}
	}
	return nil
}
