package invariant

import (
	"testing"

	"ebslab/internal/trace"
)

// fingerprintDataset is a dataset of n records and n rows in each metric
// domain, its fields varied so no two words repeat in step.
func fingerprintDataset(n int) *trace.Dataset {
	ds := &trace.Dataset{DurationSec: 60, Trace: make([]trace.Record, n)}
	for i := range ds.Trace {
		r := &ds.Trace[i]
		r.TraceID, r.TimeUS, r.Offset, r.Size = uint64(i+1), int64(i)*37, int64(i)<<12, 4096
		r.Latency[i%len(r.Latency)] = float32(i) / 7
	}
	for _, dom := range []trace.Domain{trace.DomainCompute, trace.DomainStorage} {
		rows := make([]trace.MetricRow, n)
		for i := range rows {
			rows[i] = trace.MetricRow{Domain: dom, Sec: int32(i % 60), ReadBps: float64(i) * 1.5, WriteIOPS: float64(i)}
		}
		if dom == trace.DomainCompute {
			ds.Compute = rows
		} else {
			ds.Storage = rows
		}
	}
	return ds
}

// TestFingerprintSteadyStateAllocs: fingerprinting allocates the same
// number of times whatever the dataset's size — the digest, its SHA-256
// state, the sum and its hex string, nothing per record or row. Measured: 5
// allocations at 5,000 and at 50,000 records (amd64, Go 1.24); the ceiling
// of 6 leaves room for one more in the standard library's SHA-256.
func TestFingerprintSteadyStateAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		ds := fingerprintDataset(n)
		return testing.AllocsPerRun(3, func() { Fingerprint(ds) })
	}
	small, large := allocs(5_000), allocs(50_000)
	t.Logf("allocations per fingerprint: %.0f at 5,000 records, %.0f at 50,000", small, large)
	if small != large {
		t.Errorf("allocations grew from %.0f to %.0f for ten times the records", small, large)
	}
	if large > 6 {
		t.Errorf("%.0f allocations per fingerprint, want <= 6", large)
	}
}
