package scenario

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Foreign-trace ingest is a three-stage pipeline (DESIGN.md "Replay ingest:
// read → parse → sequence"): the caller's goroutine cuts the input into
// blocks of whole lines, parse goroutines turn each block into validated
// rows, and one sequencer folds the blocks into the replay strictly in input
// order. Everything that depends on a record's position — the header
// tolerance, t0, ordinals, sampling, the retention cap, line numbers — lives
// in the sequencer, so the result is the same for every GOMAXPROCS and every
// block size.

// ingestBlockSize is how much input one parse job covers. A block and its
// rows together stay inside a core's L2, and a 13 MB trace is ~50 jobs, so
// the pipeline's fill and drain are a small share of the ingest.
const ingestBlockSize = 256 << 10

// foreignRow is one validated foreign-trace row: everything about it that
// does not depend on where in the input it sits.
type foreignRow struct {
	ts     int64 // native units (FILETIME ticks or µs)
	offset int64
	size   int64
	vd     uint32 // FNV-1a of the device bytes, modulo the fleet's disks
	op     trace.Op
}

// lineError is a parse error at a block-relative physical line (1-based).
type lineError struct {
	line int
	err  error
}

// ingestJob is one block on its way through the pipeline. Jobs are pooled
// across ingests; nothing in one is reachable from the Replay it fed.
type ingestJob struct {
	buf   []byte       // the block's storage; the reader fills it
	data  []byte       // buf's whole lines: what the parser reads
	rows  []foreignRow // the valid rows of data before err, in line order
	lines int          // physical lines in data (up to err's, when set)
	// header is set when the block's first record failed in a way a column
	// header would: the sequencer tolerates it iff no record precedes it.
	header lineError
	err    lineError     // the first error nothing can tolerate
	done   chan struct{} // parser → sequencer, one token per trip
}

var ingestJobs = sync.Pool{New: func() any { return &ingestJob{done: make(chan struct{}, 1)} }}

// getJob returns a pooled job whose buffer holds exactly size bytes.
func getJob(size int) *ingestJob {
	j := ingestJobs.Get().(*ingestJob)
	if cap(j.buf) < size {
		j.buf = make([]byte, size)
	}
	j.buf = j.buf[:size]
	return j
}

// foreignParser holds what parsing a row needs to know about the schema and
// the fleet. It is read-only once built, so the parse goroutines share it.
type foreignParser struct {
	schema                      string
	cols                        int // columns per row
	tsCol, opCol, offCol, szCol int
	nVDs                        uint64
}

func newForeignParser(schema string, nVDs int) *foreignParser {
	p := &foreignParser{schema: schema, nVDs: uint64(nVDs)}
	if schema == SchemaMSR {
		p.cols, p.tsCol, p.opCol, p.offCol, p.szCol = 7, 0, 3, 4, 5
	} else {
		p.cols, p.tsCol, p.opCol, p.offCol, p.szCol = 5, 4, 1, 2, 3
	}
	return p
}

// ingestForeign streams an MSR or tianchi CSV through the pipeline. The
// caller's goroutine is the block reader; it returns once the parsers and
// the sequencer have exited, on success and on error alike.
func (r *Replay) ingestForeign(rd io.Reader, schema string, blockSize int) error {
	p := newForeignParser(schema, len(r.fleet.Topology.VDs))
	seq := &foreignSequencer{r: r, tickPerUS: 1, disks: make([]diskEvents, len(r.events))}
	if schema == SchemaMSR {
		seq.tickPerUS = 10 // FILETIME: 100ns ticks
	}
	workers := runtime.GOMAXPROCS(0)
	// order carries every block to the sequencer in input order and bounds
	// how many are in flight; todo hands the same blocks to whichever parser
	// is free. todo has order's capacity so that only order ever makes the
	// reader wait.
	order := make(chan *ingestJob, 2*workers)
	todo := make(chan *ingestJob, 2*workers)
	stop := make(chan struct{}) // closed by the sequencer on its first error

	var seqErr error
	sequenced := make(chan struct{})
	go func() {
		defer close(sequenced)
		for j := range order {
			<-j.done
			// After an error the rest is drained unread, so the reader and
			// the parsers never wait on a consumer that has gone.
			if seqErr == nil {
				if seqErr = seq.fold(j); seqErr != nil {
					close(stop)
				}
			}
			ingestJobs.Put(j)
		}
	}()

	var parsers sync.WaitGroup
	dispatch := func(j *ingestJob, n int) {
		j.data = j.buf[:n]
		order <- j
		todo <- j
		if workers > 0 { // one parser per block until there is one per core
			workers--
			parsers.Add(1)
			go func() {
				defer parsers.Done()
				for j := range todo {
					p.parse(j)
					j.done <- struct{}{}
				}
			}()
		}
	}

	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	cur, fill := getJob(blockSize), 0
	var readErr error
	for readErr == nil && !stopped() {
		for fill < len(cur.buf) && readErr == nil {
			var n int
			n, readErr = rd.Read(cur.buf[fill:])
			fill += n
		}
		// Dispatch the whole lines; the tail opens the next block. At the end
		// of the input the tail is its last line; after a failed read it is a
		// line that never finished arriving, and is dropped.
		cut := fill
		if readErr != io.EOF {
			cut = bytes.LastIndexByte(cur.buf[:fill], '\n') + 1
		}
		if cut == 0 && readErr == nil {
			// One line longer than the block: grow this block and read on.
			cur.buf = append(cur.buf, make([]byte, len(cur.buf))...)
			continue
		}
		// The tail is shorter than a line, which can be longer than a block.
		next := getJob(max(blockSize, 2*(fill-cut)))
		rest := copy(next.buf, cur.buf[cut:fill])
		if cut > 0 {
			dispatch(cur, cut)
		} else {
			ingestJobs.Put(cur)
		}
		cur, fill = next, rest
	}
	ingestJobs.Put(cur)
	close(todo)
	close(order)
	parsers.Wait()
	<-sequenced

	if seqErr != nil {
		return seqErr
	}
	if readErr != io.EOF {
		return fmt.Errorf("scenario: replay line %d: %w", seq.lines+1, readErr)
	}
	for vd := range seq.disks {
		r.events[vd] = seq.disks[vd].join()
	}
	return nil
}

// parse splits j.data into lines and rows. It stops at the first error no
// position in the input could tolerate; a header-like failure of the block's
// first record is set aside and parsing goes on, because only the sequencer
// knows whether that record is the input's first.
func (p *foreignParser) parse(j *ingestJob) {
	j.rows = j.rows[:0]
	j.lines = 0
	j.header, j.err = lineError{}, lineError{}

	first := true
	for rest := j.data; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		j.lines++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1] // CRLF
		}
		if len(line) == 0 {
			continue // blank lines separate nothing and count as lines only
		}
		// The row is parsed in place, in the slot it keeps if it is valid.
		n := len(j.rows)
		j.rows = append(j.rows, foreignRow{})
		if headerLike, err := p.parseLine(line, &j.rows[n]); err != nil {
			j.rows = j.rows[:n]
			if headerLike && first {
				j.header = lineError{j.lines, err}
				first = false
				continue
			}
			j.err = lineError{j.lines, err}
			return
		}
		first = false
	}
}

// FNV-1a, 64-bit: the device-to-disk hash the goldens pin (hash/fnv's
// New64a, without the hasher object).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// parseLine decodes one non-blank line into row. headerLike reports an
// error a column-header row would produce (tolerated on the input's first
// record only). Neither schema quotes its fields, so a double quote anywhere
// is refused rather than interpreted.
func (p *foreignParser) parseLine(line []byte, row *foreignRow) (headerLike bool, err error) {
	// ends[k] is where field k stops; a row has at most seven fields.
	var ends [7]int
	n := 0
	for i, c := range line {
		if c == ',' {
			if n < len(ends)-1 {
				ends[n] = i
			}
			n++
		} else if c == '"' {
			return false, fmt.Errorf("column %d: quoted fields are not supported (%s fields are never quoted)", i+1, p.schema)
		}
	}
	if n+1 != p.cols {
		return false, fmt.Errorf("%d columns, %s wants %d", n+1, p.schema, p.cols)
	}
	ends[n] = len(line)
	field := func(k int) []byte {
		if k == 0 {
			return line[:ends[0]]
		}
		return line[ends[k-1]+1 : ends[k]]
	}

	var ok bool
	if row.ts, ok = parseInt(field(p.tsCol)); !ok {
		return true, fmt.Errorf("timestamp %q: want an integer", field(p.tsCol))
	}
	if row.ts < 0 {
		return false, fmt.Errorf("timestamp %d is negative", row.ts)
	}
	switch op := bytes.TrimSpace(field(p.opCol)); string(op) {
	case "R", "r", "Read", "read", "READ":
		row.op = trace.OpRead
	case "W", "w", "Write", "write", "WRITE":
		row.op = trace.OpWrite
	default:
		return true, fmt.Errorf("opcode %q: want read or write", op)
	}
	if row.offset, ok = parseInt(field(p.offCol)); !ok {
		return false, fmt.Errorf("offset %q: want an integer", field(p.offCol))
	}
	if row.offset < 0 {
		return false, fmt.Errorf("offset %d is negative", row.offset)
	}
	if row.size, ok = parseInt(field(p.szCol)); !ok {
		return false, fmt.Errorf("size %q: want an integer", field(p.szCol))
	}
	if row.size <= 0 {
		return false, fmt.Errorf("size %d, want > 0", row.size)
	}

	var h uint64
	if p.schema == SchemaMSR { // host.disk
		h = (fnv1a(fnvOffset64, field(1)) ^ '.') * fnvPrime64
		h = fnv1a(h, field(2))
	} else {
		h = fnv1a(fnvOffset64, field(0))
	}
	row.vd = uint32(h % p.nVDs)
	return false, nil
}

// parseInt reads a base-10 int64 the way strconv.ParseInt(TrimSpace(b), 10,
// 64) does: surrounding white space and one sign are allowed, anything else
// — an empty field, a stray byte, a value out of range — is not an integer.
func parseInt(b []byte) (int64, bool) {
	if n := len(b); n == 0 || n > 18 { // 18 plain digits cannot overflow
		return parseIntSlow(b)
	}
	var v int64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return parseIntSlow(b)
		}
		v = v*10 + int64(d)
	}
	return v, true
}

func parseIntSlow(b []byte) (int64, bool) {
	b = bytes.TrimSpace(b)
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = (1<<63)/10 + 1 // v >= cutoff: v*10 passes 1<<63
	var v uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || v >= cutoff {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	if neg {
		return -int64(v), v <= 1<<63
	}
	return int64(v), v < 1<<63
}

// foreignSequencer is the pipeline's order-dependent state.
type foreignSequencer struct {
	r         *Replay
	tickPerUS float64
	t0        int64  // the first record's timestamp
	ord       uint64 // records sequenced so far: the next record's ordinal
	lines     int    // physical lines in the blocks sequenced so far
	started   bool   // a non-blank line has been sequenced
	disks     []diskEvents
}

func (s *foreignSequencer) at(e lineError) error {
	return fmt.Errorf("scenario: replay line %d: %w", s.lines+e.line, e.err)
}

// fold takes the next block in input order into the replay.
func (s *foreignSequencer) fold(j *ingestJob) error {
	r := s.r
	if j.header.err != nil {
		if s.started {
			return s.at(j.header) // a header row is only tolerated as the first record
		}
		s.started = true
	}
	if len(j.rows) > 0 {
		if s.ord == 0 {
			s.t0 = j.rows[0].ts
		}
		s.started = true
	}
	for i := range j.rows {
		row := &j.rows[i]
		o := s.ord
		s.ord++
		r.stats.Records++
		if !r.cfg.keepOrdinal(o) {
			continue
		}
		if r.stats.Kept >= maxReplayEvents {
			return fmt.Errorf("scenario: replay retains more than %d records; raise sample=", maxReplayEvents)
		}
		s.add(row, o)
	}
	if j.err.err != nil {
		return s.at(j.err)
	}
	s.lines += j.lines
	return nil
}

// diskEvents is one disk's kept events while the ingest runs: chunks filled
// in order and never regrown, which join copies once into the exactly-sized
// slice the Replay keeps. Growing that slice in place instead allocates three
// to five times its final size on the way (append's 1.25x steps; doubling
// plus a trim), all of it in the sequencer.
type diskEvents struct {
	chunks [][]workload.Event
	n      int
}

// A disk's first chunk holds firstChunk events and each of its smallChunks
// twice the last, up to fullChunk (32 KiB) — the size that is pooled across
// ingests and that every later chunk has.
const (
	firstChunk  = 64
	smallChunks = 4
	fullChunk   = firstChunk << smallChunks
)

var eventChunks = sync.Pool{New: func() any { return new([fullChunk]workload.Event) }}

func (d *diskEvents) push(ev workload.Event) {
	k := len(d.chunks)
	if k == 0 || len(d.chunks[k-1]) == cap(d.chunks[k-1]) {
		var c []workload.Event
		if k < smallChunks {
			c = make([]workload.Event, 0, firstChunk<<k)
		} else {
			c = eventChunks.Get().(*[fullChunk]workload.Event)[:0]
		}
		if d.chunks == nil {
			d.chunks = make([][]workload.Event, 0, 8)
		}
		d.chunks = append(d.chunks, c)
		k++
	}
	d.chunks[k-1] = append(d.chunks[k-1], ev)
	d.n++
}

// join returns the disk's events as one slice (nil when there are none) and
// the full-size chunks to the pool.
func (d *diskEvents) join() []workload.Event {
	if d.n == 0 {
		return nil
	}
	out := make([]workload.Event, 0, d.n)
	for _, c := range d.chunks {
		out = append(out, c...)
		if cap(c) == fullChunk {
			eventChunks.Put((*[fullChunk]workload.Event)(c[:fullChunk]))
		}
	}
	d.chunks = nil
	return out
}

// add maps one kept row onto the fleet: timestamp rebased and scaled, size
// and offset fitted to the target disk, queue pair by seed-derived ordinal
// hash.
func (s *foreignSequencer) add(row *foreignRow, ord uint64) {
	r := s.r
	vd := cluster.VDID(row.vd)
	d := &r.fleet.Topology.VDs[vd]

	us := int64(float64(row.ts-s.t0) / s.tickPerUS * r.cfg.TimeScale)
	if us < 0 {
		us = 0
		r.stats.Reordered++
	}

	size := (row.size + workload.SectorSize - 1) &^ (workload.SectorSize - 1)
	if size > 4<<20 {
		size = 4 << 20
	}
	if size != row.size {
		r.stats.Clamped++
	}
	offset := workload.AlignDown(row.offset)
	if span := d.Capacity - size; offset > span {
		offset = workload.AlignDown(offset % (span + 1))
		r.stats.Clamped++
	}
	qp := d.QPs[uint64(subSeed(r.fleet.Cfg.Seed, tagReplayPick, ord))%uint64(len(d.QPs))]

	ev := workload.Event{TimeUS: us, Op: row.op, Size: int32(size), Offset: offset, QP: qp}
	s.disks[vd].push(ev)
	r.stats.Kept++

	// Per-second demand, re-inflated by the sampling factor so the throttle
	// sees the estimated full-trace offered load.
	sec := int(us / 1_000_000)
	for len(r.series[vd]) <= sec {
		r.series[vd] = append(r.series[vd], workload.Sample{})
	}
	sm := &r.series[vd][sec]
	scale := float64(r.cfg.SampleEvery)
	if ev.Op == trace.OpRead {
		sm.ReadBps += float64(size) * scale
		sm.ReadIOPS += scale
	} else {
		sm.WriteBps += float64(size) * scale
		sm.WriteIOPS += scale
	}
}
