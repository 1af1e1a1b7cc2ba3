package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ebslab/internal/cluster"
)

// checkRecord rejects decoded records no simulation could have produced —
// an op other than read or write, NaN, infinite or negative stage
// latencies, non-positive sizes, negative offsets or timestamps. Both trace
// decoders apply it to every record, so malformed foreign input fails loudly
// with its position instead of leaking poison values (a single NaN latency
// would silently corrupt every sketch and metric it touches) into downstream
// consumers. The rules themselves are CheckPacked's, which a fabric
// coordinator applies to every packed record a worker ships.
func checkRecord(rec *Record) error {
	var packed [RecordSize]byte
	Pack(rec, packed[:])
	return CheckPacked(packed[:])
}

// traceHeader is the CSV column layout for Record.
var traceHeader = []string{
	"trace_id", "time_us", "op", "size", "offset",
	"dc", "node", "user", "vm", "vd", "qp", "wt", "storage", "segment",
	"lat_compute_us", "lat_frontend_us", "lat_bs_us", "lat_backend_us", "lat_cs_us",
}

// traceIntBits is the width ReadTraceCSV parses each integer column at
// (size .. segment; the columns before them have parsers of their own).
var traceIntBits = [14]int{3: 32, 4: 64, 5: 32, 6: 32, 7: 32, 8: 32, 9: 32, 10: 32, 11: 8, 12: 32, 13: 32}

// WriteTraceCSV writes records to w as CSV with a header row.
func WriteTraceCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, len(traceHeader))
	for i := range records {
		r := &records[i]
		row[0] = strconv.FormatUint(r.TraceID, 10)
		row[1] = strconv.FormatInt(r.TimeUS, 10)
		row[2] = r.Op.String()
		row[3] = strconv.FormatInt(int64(r.Size), 10)
		row[4] = strconv.FormatInt(r.Offset, 10)
		row[5] = strconv.FormatInt(int64(r.DC), 10)
		row[6] = strconv.FormatInt(int64(r.Node), 10)
		row[7] = strconv.FormatInt(int64(r.User), 10)
		row[8] = strconv.FormatInt(int64(r.VM), 10)
		row[9] = strconv.FormatInt(int64(r.VD), 10)
		row[10] = strconv.FormatInt(int64(r.QP), 10)
		row[11] = strconv.FormatInt(int64(r.WT), 10)
		row[12] = strconv.FormatInt(int64(r.Storage), 10)
		row[13] = strconv.FormatInt(int64(r.Segment), 10)
		for s := 0; s < int(NumStages); s++ {
			row[14+s] = strconv.FormatFloat(float64(r.Latency[s]), 'g', -1, 32)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV reads records written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if len(header) != len(traceHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(header), len(traceHeader))
	}
	var out []Record
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		var rec Record
		if rec.TraceID, err = strconv.ParseUint(row[0], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d trace_id: %w", line, err)
		}
		if rec.TimeUS, err = strconv.ParseInt(row[1], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d time_us: %w", line, err)
		}
		switch row[2] {
		case "R":
			rec.Op = OpRead
		case "W":
			rec.Op = OpWrite
		default:
			return nil, fmt.Errorf("trace: line %d: bad opcode %q", line, row[2])
		}
		// Columns 3..13 are the record's integer fields, each of its own width.
		var ints [14]int64
		for col := 3; col < len(ints); col++ {
			if ints[col], err = strconv.ParseInt(row[col], 10, traceIntBits[col]); err != nil {
				return nil, fmt.Errorf("trace: line %d col %s: %w", line, traceHeader[col], err)
			}
		}
		rec.Size = int32(ints[3])
		rec.Offset = ints[4]
		rec.DC = cluster.DCID(ints[5])
		rec.Node = cluster.NodeID(ints[6])
		rec.User = cluster.UserID(ints[7])
		rec.VM = cluster.VMID(ints[8])
		rec.VD = cluster.VDID(ints[9])
		rec.QP = cluster.QPID(ints[10])
		rec.WT = int8(ints[11])
		rec.Storage = cluster.StorageNodeID(ints[12])
		rec.Segment = cluster.SegmentID(ints[13])
		for s := 0; s < int(NumStages); s++ {
			v, err := strconv.ParseFloat(row[14+s], 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d col %s: %w", line, traceHeader[14+s], err)
			}
			rec.Latency[s] = float32(v)
		}
		if err := checkRecord(&rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
}

// metricHeader is the CSV column layout for MetricRow.
var metricHeader = []string{
	"domain", "sec", "dc", "user", "vm", "vd",
	"node", "qp", "wt", "storage", "segment",
	"read_bps", "write_bps", "read_iops", "write_iops",
}

// WriteMetricCSV writes metric rows to w as CSV with a header row.
func WriteMetricCSV(w io.Writer, rows []MetricRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(metricHeader); err != nil {
		return fmt.Errorf("trace: write metric header: %w", err)
	}
	row := make([]string, len(metricHeader))
	for i := range rows {
		m := &rows[i]
		row[0] = m.Domain.String()
		row[1] = strconv.FormatInt(int64(m.Sec), 10)
		row[2] = strconv.FormatInt(int64(m.DC), 10)
		row[3] = strconv.FormatInt(int64(m.User), 10)
		row[4] = strconv.FormatInt(int64(m.VM), 10)
		row[5] = strconv.FormatInt(int64(m.VD), 10)
		row[6] = strconv.FormatInt(int64(m.Node), 10)
		row[7] = strconv.FormatInt(int64(m.QP), 10)
		row[8] = strconv.FormatInt(int64(m.WT), 10)
		row[9] = strconv.FormatInt(int64(m.Storage), 10)
		row[10] = strconv.FormatInt(int64(m.Segment), 10)
		row[11] = strconv.FormatFloat(m.ReadBps, 'g', -1, 64)
		row[12] = strconv.FormatFloat(m.WriteBps, 'g', -1, 64)
		row[13] = strconv.FormatFloat(m.ReadIOPS, 'g', -1, 64)
		row[14] = strconv.FormatFloat(m.WriteIOPS, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write metric row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
