package trace

import (
	"bytes"
	"math"
	"testing"
)

// The codec fuzzers assert two properties on arbitrary input: the readers
// never panic, and any input they accept round-trips — re-encoding the
// parsed records and parsing again yields identical values (floats compared
// by bit pattern so NaN latencies cannot mask a real mismatch). Seeds that
// pin known tricky shapes live in testdata/fuzz; `make fuzz-smoke` gives
// each target a short randomized run in CI.

const fuzzTraceCSVSeed = `trace_id,time_us,op,size,offset,dc,node,user,vm,vd,qp,wt,storage,segment,lat_compute_us,lat_frontend_us,lat_bs_us,lat_backend_us,lat_cs_us
1,1000,R,4096,0,0,1,2,3,4,5,0,6,7,10,20,30,40,50
2,2000,W,8192,4096,0,1,2,3,4,5,1,6,7,1.5,2.5,3.5,4.5,5.5
`

const fuzzTraceJSONLSeed = `{"trace_id":1,"time_us":1000,"op":"R","size":4096,"offset":0,"dc":0,"node":1,"user":2,"vm":3,"vd":4,"qp":5,"wt":0,"storage":6,"segment":7,"latency_us":[10,20,30,40,50]}
{"trace_id":2,"time_us":2000,"op":"W","size":8192,"offset":4096,"dc":0,"node":1,"user":2,"vm":3,"vd":4,"qp":5,"wt":1,"storage":6,"segment":7,"latency_us":[1.5,2.5,3.5,4.5,5.5]}
`

func f32Eq(a, b [NumStages]float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func recordsEqual(a, b Record) bool {
	la, lb := a.Latency, b.Latency
	a.Latency, b.Latency = [NumStages]float32{}, [NumStages]float32{}
	return a == b && f32Eq(la, lb)
}

func FuzzReadTraceCSV(f *testing.F) {
	f.Add([]byte(fuzzTraceCSVSeed))
	f.Add([]byte("trace_id,time_us,op\n1,2,R\n"))               // short header
	f.Add([]byte(""))                                           // empty
	f.Add([]byte(fuzzTraceCSVSeed + "3,9e99,R,1,2,,,,,,,,,\n")) // bad row
	f.Add([]byte(fuzzTraceCSVSeed[:len(fuzzTraceCSVSeed)/2]))   // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTraceCSV(&buf, recs); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again, err := ReadTraceCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if !recordsEqual(recs[i], again[i]) {
				t.Fatalf("record %d changed across round trip:\n%+v\n%+v", i, recs[i], again[i])
			}
		}
	})
}

func FuzzReadTraceJSONL(f *testing.F) {
	f.Add([]byte(fuzzTraceJSONLSeed))
	f.Add([]byte(`{"op":"X"}` + "\n"))
	f.Add([]byte(`{"trace_id":1,"op":"R","latency_us":[1,2,3,4,5,6]}` + "\n")) // too many stages
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTraceJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTraceJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again, err := ReadTraceJSONL(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if !recordsEqual(recs[i], again[i]) {
				t.Fatalf("record %d changed across round trip:\n%+v\n%+v", i, recs[i], again[i])
			}
		}
	})
}
