package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Fatalf("Op strings = %q/%q", OpRead, OpWrite)
	}
}

func TestStageString(t *testing.T) {
	want := []string{"compute_node", "frontend_net", "block_server", "backend_net", "chunk_server"}
	for s := Stage(0); s < NumStages; s++ {
		if got := s.String(); got != want[s] {
			t.Errorf("Stage(%d) = %q, want %q", s, got, want[s])
		}
	}
	if got := Stage(9).String(); got != "Stage(9)" {
		t.Errorf("unknown stage = %q", got)
	}
}

func TestTotalLatency(t *testing.T) {
	r := Record{Latency: [NumStages]float32{1, 2, 3, 4, 5}}
	if got := r.TotalLatency(); got != 15 {
		t.Fatalf("TotalLatency = %v, want 15", got)
	}
}

func TestMetricRowSums(t *testing.T) {
	m := MetricRow{ReadBps: 10, WriteBps: 5, ReadIOPS: 100, WriteIOPS: 50}
	if m.Bps() != 15 || m.IOPS() != 150 {
		t.Fatalf("Bps/IOPS = %v/%v", m.Bps(), m.IOPS())
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	in := []Record{
		{
			TraceID: 42, TimeUS: 1_000_000, Op: OpWrite, Size: 4096, Offset: 1 << 30,
			DC: 1, Node: 2, User: 3, VM: 4, VD: 5, QP: 6, WT: 1, Storage: 7, Segment: 8,
			Latency: [NumStages]float32{10.5, 20, 30, 40, 50.25},
		},
		{
			TraceID: 43, TimeUS: 2, Op: OpRead, Size: 512, Offset: 0,
			Latency: [NumStages]float32{1, 1, 1, 1, 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, in); err != nil {
		t.Fatalf("WriteTraceCSV: %v", err)
	}
	out, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatalf("ReadTraceCSV: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestTraceCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "a,b\n",
		"bad op":      strings.Join(traceHeader, ",") + "\n1,2,X,4,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
		"bad number":  strings.Join(traceHeader, ",") + "\nx,2,R,4,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
		"bad latency": strings.Join(traceHeader, ",") + "\n1,2,R,4,5,0,0,0,0,0,0,0,0,0,zzz,0,0,0,0\n",
		// Hardened domain checks: parseable values no run could produce must
		// fail with a positional error, not decode into poison records.
		"nan latency":      strings.Join(traceHeader, ",") + "\n1,2,R,4,5,0,0,0,0,0,0,0,0,0,NaN,0,0,0,0\n",
		"inf latency":      strings.Join(traceHeader, ",") + "\n1,2,R,4,5,0,0,0,0,0,0,0,0,0,0,+Inf,0,0,0\n",
		"negative latency": strings.Join(traceHeader, ",") + "\n1,2,R,4,5,0,0,0,0,0,0,0,0,0,0,0,-1,0,0\n",
		"negative size":    strings.Join(traceHeader, ",") + "\n1,2,R,-4,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
		"zero size":        strings.Join(traceHeader, ",") + "\n1,2,R,0,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
		"negative offset":  strings.Join(traceHeader, ",") + "\n1,2,R,4,-5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
		"negative time":    strings.Join(traceHeader, ",") + "\n1,-2,R,4,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n",
	}
	for name, in := range cases {
		if _, err := ReadTraceCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTraceCSV accepted malformed input", name)
		}
	}
}

func TestWriteMetricCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMetricCSV(&buf, []MetricRow{
		{
			Domain: DomainCompute, Sec: 17, DC: 0, User: 1, VM: 2, VD: 3,
			Node: 4, QP: 5, WT: 2,
			ReadBps: 35e6, WriteBps: 14e6, ReadIOPS: 3200, WriteIOPS: 9000,
		},
		{
			Domain: DomainStorage, Sec: 17, DC: 2, User: 1, VM: 2, VD: 3,
			Storage: 9, Segment: 11,
			ReadBps: 21e6, WriteBps: 13e6, ReadIOPS: 3000.5, WriteIOPS: 8000,
		},
	})
	if err != nil {
		t.Fatalf("WriteMetricCSV: %v", err)
	}
	const want = "domain,sec,dc,user,vm,vd,node,qp,wt,storage,segment,read_bps,write_bps,read_iops,write_iops\n" +
		"compute,17,0,1,2,3,4,5,2,0,0,3.5e+07,1.4e+07,3200,9000\n" +
		"storage,17,2,1,2,3,0,0,0,9,11,2.1e+07,1.3e+07,3000.5,8000\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteMetricCSV wrote\n%s\nwant\n%s", got, want)
	}
}

func TestTraceCSVRoundTripProperty(t *testing.T) {
	// Property: any record in the decoder's accepted domain (non-negative
	// time and offset, positive size) survives a round trip unchanged.
	f := func(id uint64, timeUS int64, size int32, offset int64, write bool) bool {
		if timeUS < 0 {
			timeUS = ^timeUS
		}
		if offset < 0 {
			offset = ^offset
		}
		size &= 1<<31 - 1
		if size == 0 {
			size = 4096
		}
		rec := Record{TraceID: id, TimeUS: timeUS, Size: size, Offset: offset}
		if write {
			rec.Op = OpWrite
		}
		var buf bytes.Buffer
		if err := WriteTraceCSV(&buf, []Record{rec}); err != nil {
			return false
		}
		out, err := ReadTraceCSV(&buf)
		return err == nil && len(out) == 1 && out[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
