package trace

import (
	"bytes"
	"testing"

	"ebslab/internal/cluster"
)

// The spec and metric files are an export (ebssim -out): nothing in the
// module reads them back, so the writer tests pin the emitted bytes.

func TestWriteVDSpecCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteVDSpecCSV(&buf, []VDSpec{
		{VD: 1, Capacity: 64 << 30, ThroughputCap: 1.2e8, IOPSCap: 3000, NumQPs: 4},
		{VD: 2, Capacity: 40 << 30, ThroughputCap: 1e8, IOPSCap: 1800, NumQPs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "vd,capacity,tput_cap_bps,iops_cap,num_qps\n" +
		"1,68719476736,1.2e+08,3000,4\n" +
		"2,42949672960,1e+08,1800,1\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteVDSpecCSV wrote\n%s\nwant\n%s", got, want)
	}
}

func TestWriteVMSpecCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteVMSpecCSV(&buf, []VMSpec{
		{VM: 7, Node: 3, App: cluster.AppDatabase, VDs: []cluster.VDID{1, 2, 9}},
		{VM: 8, Node: 4, App: cluster.AppBigData},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "vm,node,app,vds\n" +
		"7,3,Database,1|2|9\n" +
		"8,4,BigData,\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteVMSpecCSV wrote\n%s\nwant\n%s", got, want)
	}
}
