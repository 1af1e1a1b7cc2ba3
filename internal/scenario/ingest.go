package scenario

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Foreign-trace ingest is a pipeline (DESIGN.md "Replay ingest: read →
// parse → sequence → map → group"): the caller's goroutine cuts the input
// into blocks of whole lines and parse goroutines turn each block into
// validated rows. One sequencer takes the blocks strictly in input order and
// settles only what depends on a row's position — the header tolerance, t0,
// the block's first ordinal and how many of its rows sampling keeps, the
// retention cap, line numbers — and hands each block back to the goroutine
// that parsed it, which maps the kept rows to events in the input-order slots
// the sequencer gave it. Once the input ends, each disk's events are gathered
// into one exactly-sized slice, disks in parallel. The result is the same for
// every GOMAXPROCS and every block size.

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
	// What the sequencer settled, for the mapper to read once placed says
	// true: rows[0]'s ordinal, the input-order slot of the block's first kept
	// event, and the input's first timestamp.
	ord    uint64
	at     int
	t0     int64
	placed chan bool // sequencer → parser: map the kept rows, or drop the block
}

var ingestJobs = sync.Pool{New: func() any {
	return &ingestJob{done: make(chan struct{}, 1), placed: make(chan bool, 1)}
}}

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
	tickPerUS := 1.0
	if schema == SchemaMSR {
		tickPerUS = 10 // FILETIME: 100ns ticks
	}
	kept := &keptEvents{chunks: make([]*keptChunk, maxReplayEvents/keptChunkLen)}
	defer kept.release()
	seq := &foreignSequencer{r: r, kept: kept}
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
			// After an error the rest is dropped unmapped, so the reader and
			// the parsers never wait on a consumer that has gone.
			if seqErr == nil {
				if seqErr = seq.place(j); seqErr != nil {
					close(stop)
				}
			}
			j.placed <- seqErr == nil // the job is its parser's from here on
		}
	}()

	// A parser waits for the sequencer to place each block it parsed, then
	// maps the block itself: blocks are handed out in input order, so the
	// wait is for the blocks ahead of it, which are being parsed too.
	var parsers sync.WaitGroup
	var mappers []*foreignMapper
	dispatch := func(j *ingestJob, n int) {
		j.data = j.buf[:n]
		order <- j
		todo <- j
		if workers > 0 { // one parser per block until there is one per core
			workers--
			m := &foreignMapper{r: r, kept: kept, tickPerUS: tickPerUS, perDisk: make([]int, len(r.events))}
			mappers = append(mappers, m)
			parsers.Add(1)
			go func() {
				defer parsers.Done()
				for j := range todo {
					p.parse(j)
					j.done <- struct{}{}
					if <-j.placed {
						m.mapBlock(j)
					}
					ingestJobs.Put(j)
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
	kept.group(r, mappers)
	return nil
}

// parse splits j.data into lines and rows. It stops at the first error no
// position in the input could tolerate; a header-like failure of the block's
// first record is set aside and parsing goes on, because only the sequencer
// knows whether that record is the input's first.
func (p *foreignParser) parse(j *ingestJob) {
	// Room for a row per 32 bytes, which few traces' rows are shorter than:
	// growing a new job's batch from empty in append's 1.25x steps would
	// leave five times its size behind as garbage.
	if want := len(j.data) / 32; cap(j.rows) < want {
		j.rows = make([]foreignRow, 0, want)
	}
	j.rows = j.rows[:0]
	j.lines = 0
	j.header, j.err = lineError{}, lineError{}

	quotes := bytes.IndexByte(j.data, '"') >= 0 // only then can a line hold one
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
		if headerLike, err := p.parseLine(line, quotes, &j.rows[n]); err != nil {
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
// is refused rather than interpreted; quotes says whether the line's block
// holds one at all.
func (p *foreignParser) parseLine(line []byte, quotes bool, row *foreignRow) (headerLike bool, err error) {
	if quotes {
		if i := bytes.IndexByte(line, '"'); i >= 0 {
			return false, fmt.Errorf("column %d: quoted fields are not supported (%s fields are never quoted)", i+1, p.schema)
		}
	}
	// ends[k] is where field k stops; a row has at most seven fields.
	var ends [7]int
	n := 0
	comma := func(i int) {
		if n < len(ends)-1 {
			ends[n] = i
		}
		n++
	}
	i := 0
	// A word at a time: the xor turns its commas into zero bytes, and z has
	// the top bit of exactly those set (no carry crosses a byte).
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:]) ^ 0x2C2C2C2C2C2C2C2C
		for z := ^(x&0x7F7F7F7F7F7F7F7F + 0x7F7F7F7F7F7F7F7F | x | 0x7F7F7F7F7F7F7F7F); z != 0; z &= z - 1 {
			comma(i + bits.TrailingZeros64(z)/8)
		}
	}
	for ; i < len(line); i++ {
		if line[i] == ',' {
			comma(i)
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
	var v uint64
	rest := b
	for ; len(rest) >= 8; rest = rest[8:] {
		w := binary.LittleEndian.Uint64(rest)
		if w&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 || (w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 {
			return parseIntSlow(b) // a byte outside '0'..'9'
		}
		v = v*100_000_000 + eightDigits(w)
	}
	for _, c := range rest {
		d := c - '0'
		if d > 9 {
			return parseIntSlow(b)
		}
		v = v*10 + uint64(d)
	}
	return int64(v), true
}

// eightDigits is the value of eight ASCII digits read as a little-endian
// word, the first digit in the lowest byte. Pairs, then fours, then all eight
// combine in three multiplies instead of a chain of eight.
func eightDigits(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // each even byte: its pair's two-digit value
	return ((w&0x000000FF000000FF)*(100+1_000_000<<32) + (w>>16&0x000000FF000000FF)*(1+10_000<<32)) >> 32
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

// foreignSequencer is the pipeline's order-dependent state. Of the rows it
// reads only the input's first, for t0; sampling is a function of ordinals.
type foreignSequencer struct {
	r       *Replay
	kept    *keptEvents
	t0      int64  // the first record's timestamp
	ord     uint64 // records sequenced so far: the next record's ordinal
	lines   int    // physical lines in the blocks sequenced so far
	started bool   // a non-blank line has been sequenced
}

func (s *foreignSequencer) at(e lineError) error {
	return fmt.Errorf("scenario: replay line %d: %w", s.lines+e.line, e.err)
}

// place settles the next block in input order: the header tolerance, t0, the
// block's ordinals and kept events against the retention cap, and its error
// at its physical line. A nil return places the block: its kept events have
// their input-order slots reserved, for its parser to fill.
func (s *foreignSequencer) place(j *ingestJob) error {
	r := s.r
	if j.header.err != nil {
		if s.started {
			return s.at(j.header) // a header row is only tolerated as the first record
		}
		s.started = true
	}
	n := len(j.rows)
	if n > 0 {
		if s.ord == 0 {
			s.t0 = j.rows[0].ts
		}
		s.started = true
	}
	kept := r.cfg.keptOrdinals(s.ord, n)
	if r.stats.Kept+kept > maxReplayEvents {
		return fmt.Errorf("scenario: replay retains more than %d records; raise sample=", maxReplayEvents)
	}
	if j.err.err != nil {
		return s.at(j.err)
	}
	j.ord, j.at, j.t0 = s.ord, r.stats.Kept, s.t0
	s.ord += uint64(n)
	r.stats.Records += n
	r.stats.Kept += kept
	s.kept.reserve(r.stats.Kept)
	s.lines += j.lines
	return nil
}

// keptEvents holds an ingest's kept events in input order, each beside its
// disk, in chunks the sequencer adds before it places a block that reaches
// them. chunks is never resized and a mapper writes only its block's slots,
// so no one takes a lock. The chunks are pooled across ingests.
type keptEvents struct {
	chunks []*keptChunk // maxReplayEvents/keptChunkLen entries, the first n in use
	n      int
}

const (
	keptChunkBits = 13
	keptChunkLen  = 1 << keptChunkBits // 8,192 events: 288 KiB with their disks
)

type keptChunk struct {
	ev [keptChunkLen]workload.Event
	vd [keptChunkLen]uint32
}

var keptChunks = sync.Pool{New: func() any { return new(keptChunk) }}

// reserve makes room for the first events slots.
func (k *keptEvents) reserve(events int) {
	for k.n<<keptChunkBits < events {
		k.chunks[k.n] = keptChunks.Get().(*keptChunk)
		k.n++
	}
}

// release returns the chunks to the pool.
func (k *keptEvents) release() {
	for _, c := range k.chunks[:k.n] {
		keptChunks.Put(c)
	}
}

// group hands each disk its first total events as one exactly-sized slice in
// input order. The disks are cut into contiguous ranges of about equal event
// counts, one per goroutine, and each goroutine walks the events once, taking
// its own disks'. The mappers' counts are added up here.
func (k *keptEvents) group(r *Replay, mappers []*foreignMapper) {
	perDisk := make([]int, len(r.events))
	for _, m := range mappers {
		for vd, n := range m.perDisk {
			perDisk[vd] += n
		}
		r.stats.Reordered += m.reordered
		r.stats.Clamped += m.clamped
	}
	total, workers := r.stats.Kept, runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	lo, sum := 0, 0
	for w := 1; w <= workers && lo < len(perDisk); w++ {
		hi := lo
		for hi < len(perDisk) && (w == workers || sum < total*w/workers) {
			sum += perDisk[hi]
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			k.gather(r.events, perDisk, lo, hi, total)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// gather fills events[lo:hi] with those disks' events, in input order.
func (k *keptEvents) gather(events [][]workload.Event, perDisk []int, lo, hi, total int) {
	for vd := lo; vd < hi; vd++ {
		if perDisk[vd] > 0 {
			events[vd] = make([]workload.Event, 0, perDisk[vd])
		}
	}
	for i, c := range k.chunks[:k.n] {
		n := min(keptChunkLen, total-i<<keptChunkBits)
		for j, vd := range c.vd[:n] {
			if v := int(vd); v >= lo && v < hi {
				events[v] = append(events[v], c.ev[j])
			}
		}
	}
}

// foreignMapper maps placed blocks' kept rows to events. Each parse goroutine
// has its own; group adds up their counts once the input ends.
type foreignMapper struct {
	r         *Replay // only its fleet and configuration are read
	kept      *keptEvents
	tickPerUS float64
	perDisk   []int // events mapped onto each disk
	reordered int
	clamped   int
}

// mapBlock writes the block's kept rows to their slots as events: timestamp
// rebased and scaled, size and offset fitted to the target disk, queue pair
// by seed-derived ordinal hash.
func (m *foreignMapper) mapBlock(j *ingestJob) {
	cfg, vds, seed := &m.r.cfg, m.r.fleet.Topology.VDs, m.r.fleet.Cfg.Seed
	at := j.at
	for i := range j.rows {
		row, ord := &j.rows[i], j.ord+uint64(i)
		if !cfg.keepOrdinal(ord) {
			continue
		}
		d := &vds[row.vd]

		// Past 2^63 µs the conversion is undefined (amd64 gives MinInt64), so
		// such a row saturates: kept, and beyond every run window.
		us := int64(math.MaxInt64)
		if t := float64(row.ts-j.t0) / m.tickPerUS * cfg.TimeScale; t < 1<<63 {
			us = int64(t)
			if us < 0 {
				us = 0
				m.reordered++
			}
		}

		size := (row.size + workload.SectorSize - 1) &^ (workload.SectorSize - 1)
		if size > 4<<20 {
			size = 4 << 20
		}
		if size != row.size {
			m.clamped++
		}
		offset := workload.AlignDown(row.offset)
		if span := d.Capacity - size; offset > span {
			offset = workload.AlignDown(offset % (span + 1))
			m.clamped++
		}
		qp := d.QPs[uint64(subSeed(seed, tagReplayPick, ord))%uint64(len(d.QPs))]

		c := m.kept.chunks[at>>keptChunkBits]
		c.ev[at&(keptChunkLen-1)] = workload.Event{TimeUS: us, Op: row.op, Size: int32(size), Offset: offset, QP: qp}
		c.vd[at&(keptChunkLen-1)] = row.vd
		m.perDisk[row.vd]++
		at++
	}
}
