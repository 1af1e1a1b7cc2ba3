package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// vdSpecHeader is the CSV layout for VDSpec.
var vdSpecHeader = []string{"vd", "capacity", "tput_cap_bps", "iops_cap", "num_qps"}

// WriteVDSpecCSV writes the virtual-disk specification dataset.
func WriteVDSpecCSV(w io.Writer, specs []VDSpec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(vdSpecHeader); err != nil {
		return fmt.Errorf("trace: vdspec header: %w", err)
	}
	for i := range specs {
		s := &specs[i]
		row := []string{
			strconv.FormatInt(int64(s.VD), 10),
			strconv.FormatInt(s.Capacity, 10),
			strconv.FormatFloat(s.ThroughputCap, 'g', -1, 64),
			strconv.FormatFloat(s.IOPSCap, 'g', -1, 64),
			strconv.Itoa(s.NumQPs),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: vdspec row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// vmSpecHeader is the CSV layout for VMSpec; VDs are '|'-separated.
var vmSpecHeader = []string{"vm", "node", "app", "vds"}

// WriteVMSpecCSV writes the VM specification dataset (including the
// inferred application class, §2.3).
func WriteVMSpecCSV(w io.Writer, specs []VMSpec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(vmSpecHeader); err != nil {
		return fmt.Errorf("trace: vmspec header: %w", err)
	}
	for i := range specs {
		s := &specs[i]
		vds := make([]string, len(s.VDs))
		for j, vd := range s.VDs {
			vds[j] = strconv.FormatInt(int64(vd), 10)
		}
		row := []string{
			strconv.FormatInt(int64(s.VM), 10),
			strconv.FormatInt(int64(s.Node), 10),
			s.App.String(),
			strings.Join(vds, "|"),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: vmspec row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
