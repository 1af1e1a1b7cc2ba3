package scenario

import (
	"bytes"
	"sync"
	"testing"

	"ebslab/internal/workload"
)

var fuzzFleet = sync.OnceValues(func() (*workload.Fleet, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.DCs = 1
	cfg.NodesPerDC = 2
	cfg.BSPerDC = 6
	cfg.BSPerCluster = 3
	cfg.Users = 6
	cfg.DurationSec = 12
	return workload.Generate(cfg)
})

// FuzzReplayIngest drives the replay ingester — every schema, unsampled at
// real time and sampled at a thousandfold time scale, which takes rebased
// times past 2^63 µs — over arbitrary bytes. The decoders must never panic, and any
// input they accept must obey the ingest invariants: at least one record
// kept, never more kept than parsed, and byte-identical stats on re-ingest
// (determinism is what the golden fixtures stand on). On quote-free input the
// foreign pipeline, cut into blocks a few rows long, must also accept and
// reject exactly what the record-at-a-time reference does, with the same
// error, stats and events.
func FuzzReplayIngest(f *testing.F) {
	seeds := []string{
		"Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n1000,src1,0,Read,0,4096,1\n2000,src1,1,Write,65536,8192,2\n",
		"0,R,0,512,1000000\n1,W,4096,1024,1000500\n2,r,8192,2048,1001000\n",
		"-1,src1,0,Read,0,4096,1\n",
		"0,R,0,512\n",
		"{\"not\":\"a record\"}\n",
		"what even is this\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	fleet, err := fuzzFleet()
	if err != nil {
		f.Fatal(err)
	}
	schemas := []string{SchemaAuto, SchemaNativeJSONL, SchemaNativeCSV, SchemaMSR, SchemaTianchi}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, schema := range schemas {
			for _, shape := range []struct {
				sample int
				scale  float64
			}{{1, 1}, {3, 1000}} {
				sample := shape.sample
				cfg := ReplayConfig{Path: "fuzz", Schema: schema, SampleEvery: sample, TimeScale: shape.scale}
				rp, err := cfg.Ingest(bytes.NewReader(data), fleet)
				if schema == SchemaMSR || schema == SchemaTianchi {
					if bytes.IndexByte(data, '"') < 0 {
						ref := newOracle(t, cfg, data)
						ref.holds(t, ingestBlockSize)
						ref.holds(t, 64)
					} else if err == nil {
						t.Fatalf("%s sample=%d: accepted input with a double quote in it", schema, sample)
					}
				}
				if err != nil {
					continue
				}
				st := rp.Stats()
				if st.Kept < 1 || st.Kept > st.Records {
					t.Fatalf("%s sample=%d: impossible stats %+v", schema, sample, st)
				}
				again, err := cfg.Ingest(bytes.NewReader(data), fleet)
				if err != nil {
					t.Fatalf("%s sample=%d: accepted once, rejected on re-ingest: %v", schema, sample, err)
				}
				if again.Stats() != st {
					t.Fatalf("%s sample=%d: non-deterministic ingest: %+v vs %+v", schema, sample, again.Stats(), st)
				}
			}
		}
	})
}
