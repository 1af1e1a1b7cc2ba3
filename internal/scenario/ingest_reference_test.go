package scenario

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// The record-at-a-time foreign ingest the block pipeline replaced, kept as
// its differential oracle: one encoding/csv record, strconv over freshly
// built strings, a hasher object and an append per row. It is what shipped,
// with one correction — a row's line number is where encoding/csv found it
// in the input (FieldPos), not how many records came before it, which is the
// bug the pipeline fixed. encoding/csv also interprets quoted fields, which
// the pipeline refuses, so the two are only comparable on quote-free input.

// referenceReplay is what the reference ingest builds: the Replay, and each
// disk's demand series folded row by row as the loop kept it, one entry per
// second an event falls in (so a far-future row costs one entry, not a table
// out to its second).
type referenceReplay struct {
	*Replay
	series []map[int]*workload.Sample
}

// ingestReference is ReplayConfig.ingest over ingestForeignReference.
func (c ReplayConfig) ingestReference(rd io.Reader, f *workload.Fleet) (*referenceReplay, error) {
	if err := c.validateShape(); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(rd, 64<<10)
	schema := c.Schema
	if schema == SchemaAuto {
		var err error
		if schema, err = sniffSchema(br); err != nil {
			return nil, err
		}
	}
	if schema != SchemaMSR && schema != SchemaTianchi {
		return nil, fmt.Errorf("reference ingest: %s is not a foreign schema", schema)
	}
	nVDs := len(f.Topology.VDs)
	r := &referenceReplay{
		Replay: &Replay{
			spec:   Spec{Name: "replay"},
			cfg:    c,
			fleet:  f,
			stats:  ReplayStats{Schema: schema},
			events: make([][]workload.Event, nVDs),
		},
		series: make([]map[int]*workload.Sample, nVDs),
	}
	if err := r.ingestForeignReference(br, schema); err != nil {
		return nil, err
	}
	if r.stats.Kept == 0 {
		return nil, fmt.Errorf("scenario: replay: no records survived ingest (%d parsed, sample=%d) — nothing to simulate",
			r.stats.Records, c.SampleEvery)
	}
	return r, nil
}

// foreignRecord is one normalised foreign-trace row before fleet mapping.
type foreignRecord struct {
	ts     int64 // native units (FILETIME ticks or µs)
	device string
	op     trace.Op
	offset int64
	size   int64
}

func (r *referenceReplay) ingestForeignReference(rd io.Reader, schema string) error {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1

	wantCols := 7
	tickPerUS := 10.0 // MSR FILETIME: 100ns ticks
	if schema == SchemaTianchi {
		wantCols = 5
		tickPerUS = 1.0
	}
	var (
		ord   uint64
		t0    int64
		first = true
	)
	for rec := 1; ; rec++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("scenario: replay line %d: %w", rec, err)
		}
		line, _ := cr.FieldPos(0)
		if len(row) != wantCols {
			return fmt.Errorf("scenario: replay line %d: %d columns, %s wants %d", line, len(row), schema, wantCols)
		}
		fr, header, err := parseForeign(row, schema)
		if err != nil {
			if rec == 1 && header {
				continue // a header row is only tolerated as the first record
			}
			return fmt.Errorf("scenario: replay line %d: %w", line, err)
		}
		r.stats.Records++
		if first {
			t0 = fr.ts
			first = false
		}
		o := ord
		ord++
		if !r.cfg.keepOrdinal(o) {
			continue
		}
		if r.stats.Kept >= maxReplayEvents {
			return fmt.Errorf("scenario: replay retains more than %d records; raise sample=", maxReplayEvents)
		}
		r.addForeignReference(fr, t0, tickPerUS, o)
	}
}

// parseForeign decodes one CSV row. The header flag reports whether the row
// looks like a column header (tolerated as the first record only).
func parseForeign(row []string, schema string) (foreignRecord, bool, error) {
	var fr foreignRecord
	var tsCol, opCol, offCol, szCol int
	if schema == SchemaMSR {
		tsCol, opCol, offCol, szCol = 0, 3, 4, 5
		fr.device = row[1] + "." + row[2]
	} else {
		tsCol, opCol, offCol, szCol = 4, 1, 2, 3
		fr.device = row[0]
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(row[tsCol]), 10, 64)
	if err != nil {
		return fr, true, fmt.Errorf("timestamp %q: want an integer", row[tsCol])
	}
	if ts < 0 {
		return fr, false, fmt.Errorf("timestamp %d is negative", ts)
	}
	fr.ts = ts
	switch op := strings.TrimSpace(row[opCol]); op {
	case "R", "r", "Read", "read", "READ":
		fr.op = trace.OpRead
	case "W", "w", "Write", "write", "WRITE":
		fr.op = trace.OpWrite
	default:
		return fr, true, fmt.Errorf("opcode %q: want read or write", op)
	}
	if fr.offset, err = strconv.ParseInt(strings.TrimSpace(row[offCol]), 10, 64); err != nil {
		return fr, false, fmt.Errorf("offset %q: want an integer", row[offCol])
	}
	if fr.offset < 0 {
		return fr, false, fmt.Errorf("offset %d is negative", fr.offset)
	}
	if fr.size, err = strconv.ParseInt(strings.TrimSpace(row[szCol]), 10, 64); err != nil {
		return fr, false, fmt.Errorf("size %q: want an integer", row[szCol])
	}
	if fr.size <= 0 {
		return fr, false, fmt.Errorf("size %d, want > 0", fr.size)
	}
	return fr, false, nil
}

func (r *referenceReplay) addForeignReference(fr foreignRecord, t0 int64, tickPerUS float64, ord uint64) {
	top := r.fleet.Topology
	h := fnv.New64a()
	h.Write([]byte(fr.device)) //nolint:errcheck — fnv never fails
	vd := cluster.VDID(h.Sum64() % uint64(len(top.VDs)))
	d := &top.VDs[vd]

	// A rebased time past 2^63 µs saturates: the row is kept, beyond every
	// window, and not reordered.
	us := int64(math.MaxInt64)
	if t := float64(fr.ts-t0) / tickPerUS * r.cfg.TimeScale; t < 1<<63 {
		us = int64(t)
		if us < 0 {
			us = 0
			r.stats.Reordered++
		}
	}

	size := (fr.size + workload.SectorSize - 1) &^ (workload.SectorSize - 1)
	if size > 4<<20 {
		size = 4 << 20
	}
	if size != fr.size {
		r.stats.Clamped++
	}
	offset := workload.AlignDown(fr.offset)
	if span := d.Capacity - size; offset > span {
		offset = workload.AlignDown(offset % (span + 1))
		r.stats.Clamped++
	}
	qp := d.QPs[uint64(subSeed(r.fleet.Cfg.Seed, tagReplayPick, ord))%uint64(len(d.QPs))]

	ev := workload.Event{TimeUS: us, Op: fr.op, Size: int32(size), Offset: offset, QP: qp}
	r.events[vd] = append(r.events[vd], ev)
	r.stats.Kept++

	sec := int(us / 1_000_000)
	if r.series[vd] == nil {
		r.series[vd] = map[int]*workload.Sample{}
	}
	s := r.series[vd][sec]
	if s == nil {
		s = new(workload.Sample)
		r.series[vd][sec] = s
	}
	scale := float64(r.cfg.SampleEvery)
	if ev.Op == trace.OpRead {
		s.ReadBps += float64(size) * scale
		s.ReadIOPS += scale
	} else {
		s.WriteBps += float64(size) * scale
		s.WriteIOPS += scale
	}
}
