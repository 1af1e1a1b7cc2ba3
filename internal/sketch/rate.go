package sketch

import (
	"math"

	"ebslab/internal/wire"
)

// RateBucket is one second of directional traffic accounting, in exact
// integer units (bytes and ops).
type RateBucket struct {
	ReadBytes  uint64
	WriteBytes uint64
	ReadOps    uint64
	WriteOps   uint64
}

// RateMeter accumulates per-second directional rates over the observation
// window. State is a slice of integer buckets indexed by second, so Add
// commutes and Merge is an element-wise sum — exact, associative, and
// commutative. Derived statistics (P2A, EWMA, RAR) are computed at read
// time from the finalized buckets in ascending-second order, making them a
// deterministic function of the ingested multiset. Memory is bounded by the
// window length, never by the IO count.
type RateMeter struct {
	secs []RateBucket
}

// NewRateMeter creates a meter, pre-sizing for durSec seconds (the meter
// still grows if later seconds arrive).
func NewRateMeter(durSec int) *RateMeter {
	if durSec < 0 {
		durSec = 0
	}
	return &RateMeter{secs: make([]RateBucket, durSec)}
}

// Add ingests one IO of the given size at second sec (negative seconds are
// ignored).
func (r *RateMeter) Add(sec int, read bool, bytes uint64) {
	if sec < 0 {
		return
	}
	for sec >= len(r.secs) {
		r.secs = append(r.secs, RateBucket{})
	}
	b := &r.secs[sec]
	if read {
		b.ReadBytes += bytes
		b.ReadOps++
	} else {
		b.WriteBytes += bytes
		b.WriteOps++
	}
}

// Merge folds o into r element-wise, extending r to o's length if needed.
func (r *RateMeter) Merge(o *RateMeter) {
	for len(r.secs) < len(o.secs) {
		r.secs = append(r.secs, RateBucket{})
	}
	for i, b := range o.secs {
		r.secs[i].ReadBytes += b.ReadBytes
		r.secs[i].WriteBytes += b.WriteBytes
		r.secs[i].ReadOps += b.ReadOps
		r.secs[i].WriteOps += b.WriteOps
	}
}

// Series returns the per-second byte rates of the selected direction,
// scaled by scale (the engine's event-thinning compensation): read, write,
// or — when both flags are set or clear — total.
func (r *RateMeter) Series(read, write bool, scale float64) []float64 {
	if scale <= 0 {
		scale = 1
	}
	out := make([]float64, len(r.secs))
	both := read == write
	for i, b := range r.secs {
		var v uint64
		if read || both {
			v += b.ReadBytes
		}
		if write || both {
			v += b.WriteBytes
		}
		out[i] = float64(v) * scale
	}
	return out
}

// P2A returns the peak-to-average ratio of the selected direction's
// per-second byte rate, or NaN for an empty or all-zero meter. Scale
// factors cancel, so none is applied.
func (r *RateMeter) P2A(read, write bool) float64 {
	s := r.Series(read, write, 1)
	var sum, peak float64
	for _, v := range s {
		sum += v
		if v > peak {
			peak = v
		}
	}
	if len(s) == 0 || sum == 0 {
		return math.NaN()
	}
	return peak / (sum / float64(len(s)))
}

// EWMA returns the exponentially weighted moving average of the total
// per-second byte rate after the final second, with the given half-life in
// seconds (clamped to >= 1) and thinning scale. The fold runs in ascending
// second order, so the result is deterministic.
func (r *RateMeter) EWMA(halfLifeSec, scale float64) float64 {
	if len(r.secs) == 0 {
		return math.NaN()
	}
	if halfLifeSec < 1 {
		halfLifeSec = 1
	}
	decay := math.Exp2(-1 / halfLifeSec)
	s := r.Series(true, true, scale)
	ewma := s[0]
	for _, v := range s[1:] {
		ewma = decay*ewma + (1-decay)*v
	}
	return ewma
}

// MeanRAR returns the mean Resource Available Rate (Equation 1 of the
// paper) of the fleet over the window: per second, (capSum - load)/capSum
// clipped at zero, where load is the scaled total byte rate. It returns NaN
// when capSum is non-positive or the meter is empty.
func (r *RateMeter) MeanRAR(capSum, scale float64) float64 {
	if capSum <= 0 || len(r.secs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range r.Series(true, true, scale) {
		rar := (capSum - v) / capSum
		if rar < 0 {
			rar = 0
		}
		sum += rar
	}
	return sum / float64(len(r.secs))
}

// AppendHash writes the meter's canonical serialization into d.
func (r *RateMeter) AppendHash(d *wire.Digest) {
	d.U64(uint64(len(r.secs)))
	for _, b := range r.secs {
		d.U64(b.ReadBytes)
		d.U64(b.WriteBytes)
		d.U64(b.ReadOps)
		d.U64(b.WriteOps)
	}
}
