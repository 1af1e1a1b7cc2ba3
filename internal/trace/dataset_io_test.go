package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ebslab/internal/cluster"
)

// TestSaveDirWritesDataset pins the directory layout: exactly the six named
// files, each holding what its writer emits for that part of the dataset.
func TestSaveDirWritesDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds") // SaveDir creates it
	ds := &Dataset{
		DurationSec: 3,
		Trace: []Record{
			{TraceID: 1, TimeUS: 5, Op: OpWrite, Size: 4096, VD: 2, QP: 3, Segment: 4},
		},
		Compute: []MetricRow{
			{Domain: DomainCompute, Sec: 2, VD: 2, QP: 3, WriteBps: 4096, WriteIOPS: 1},
		},
		Storage: []MetricRow{
			{Domain: DomainStorage, Sec: 2, VD: 2, Segment: 4, WriteBps: 4096, WriteIOPS: 1},
		},
		VDSpecs: []VDSpec{{VD: 2, Capacity: 64 << 30, ThroughputCap: 1e8, IOPSCap: 1800, NumQPs: 1}},
		VMSpecs: []VMSpec{{VM: 1, Node: 0, App: cluster.AppDatabase, VDs: []cluster.VDID{2}}},
	}
	if err := SaveDir(ds, dir); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	want := map[string]func(io.Writer) error{
		FileTraceCSV:      func(w io.Writer) error { return WriteTraceCSV(w, ds.Trace) },
		FileTraceJSONL:    func(w io.Writer) error { return WriteTraceJSONL(w, ds.Trace) },
		FileMetricCompute: func(w io.Writer) error { return WriteMetricCSV(w, ds.Compute) },
		FileMetricStorage: func(w io.Writer) error { return WriteMetricCSV(w, ds.Storage) },
		FileSpecVD:        func(w io.Writer) error { return WriteVDSpecCSV(w, ds.VDSpecs) },
		FileSpecVM:        func(w io.Writer) error { return WriteVMSpecCSV(w, ds.VMSpecs) },
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("SaveDir wrote %d files, want %d", len(entries), len(want))
	}
	for name, write := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s holds\n%s\nwant\n%s", name, got, buf.Bytes())
		}
	}
	// The trace is the one part with a reader (replay ingests it).
	f, err := os.Open(filepath.Join(dir, FileTraceCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadTraceCSV(f)
	if err != nil || len(back) != 1 || back[0] != ds.Trace[0] {
		t.Fatalf("trace.csv read back %+v, %v", back, err)
	}
}
