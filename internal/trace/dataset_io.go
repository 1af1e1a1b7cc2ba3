package trace

import (
	"fmt"
	"os"
	"path/filepath"
)

// Dataset file names within a directory.
const (
	FileTraceCSV      = "trace.csv"
	FileTraceJSONL    = "trace.jsonl"
	FileMetricCompute = "metric_compute.csv"
	FileMetricStorage = "metric_storage.csv"
	FileSpecVD        = "spec_vd.csv"
	FileSpecVM        = "spec_vm.csv"
)

// SaveDir writes the dataset's five files (plus a JSONL mirror of the
// trace) into dir, creating it if needed. The topology itself is not
// serialized — it is regenerable from the workload seed.
func SaveDir(ds *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: save dir: %w", err)
	}
	steps := []struct {
		name string
		fn   func(*os.File) error
	}{
		{FileTraceCSV, func(f *os.File) error { return WriteTraceCSV(f, ds.Trace) }},
		{FileTraceJSONL, func(f *os.File) error { return WriteTraceJSONL(f, ds.Trace) }},
		{FileMetricCompute, func(f *os.File) error { return WriteMetricCSV(f, ds.Compute) }},
		{FileMetricStorage, func(f *os.File) error { return WriteMetricCSV(f, ds.Storage) }},
		{FileSpecVD, func(f *os.File) error { return WriteVDSpecCSV(f, ds.VDSpecs) }},
		{FileSpecVM, func(f *os.File) error { return WriteVMSpecCSV(f, ds.VMSpecs) }},
	}
	for _, st := range steps {
		f, err := os.Create(filepath.Join(dir, st.name))
		if err != nil {
			return fmt.Errorf("trace: create %s: %w", st.name, err)
		}
		if err := st.fn(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: write %s: %w", st.name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: close %s: %w", st.name, err)
		}
	}
	return nil
}
