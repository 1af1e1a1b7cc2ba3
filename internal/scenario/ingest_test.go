package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/workload"
	"ebslab/internal/xrand"
)

var raceEnabled bool // set by race_test.go

// synthForeign renders a deterministic trace of the given schema: 64
// devices, heavy-tailed sizes, one row every 37 µs. messy works every
// tolerated irregularity into it — padded and signed fields, every opcode
// spelling, CRLF and blank lines, rewound timestamps, sizes and offsets that
// need clamping — so that a differential run exercises all of them at once.
func synthForeign(schema string, rows int, messy bool) []byte {
	var buf []byte
	num := func(v uint64, pad bool) {
		switch {
		case pad && v%3 == 0:
			buf = append(buf, " \t"...)
			buf = strconv.AppendUint(buf, v, 10)
			buf = append(buf, ' ')
		case pad && v%3 == 1:
			buf = append(buf, '+')
			buf = strconv.AppendUint(buf, v, 10)
		default:
			buf = strconv.AppendUint(buf, v, 10)
		}
	}
	reads := []string{"R", "r", "Read", "read", "READ", " R\t"}
	writes := []string{"W", "w", "Write", "write", "WRITE", "\tWrite "}
	for i := 0; i < rows; i++ {
		z := xrand.Mix64(uint64(i) ^ 0x7e91a7)
		pad := messy && i%7 == 0
		ts := 1_000_000 + uint64(i)*37
		if messy && i%53 == 52 {
			ts = 999_000 // before the first record's
		}
		offset := (z >> 16 % 4096) * 4096
		size := 512 * (1 + z>>32%64)
		if messy {
			switch {
			case i%97 == 96:
				offset = 92233720368547758 // far outside any disk
			case i%89 == 88:
				size = 100 // unaligned
			case i%101 == 100:
				size = 1 << 30 // clamps to 4 MiB
			}
		}
		op := reads[0]
		if z>>8&3 == 0 {
			op = writes[0]
		}
		if messy {
			op = reads[z>>10%uint64(len(reads))]
			if z>>8&3 == 0 {
				op = writes[z>>10%uint64(len(writes))]
			}
		}
		if schema == SchemaMSR {
			num(ts*10, pad)
			buf = append(buf, ",src"...)
			buf = strconv.AppendUint(buf, z%8, 10)
			buf = append(buf, ',')
			if pad {
				buf = append(buf, ' ') // device bytes are hashed as they stand
			}
			buf = strconv.AppendUint(buf, z>>3%8, 10)
			buf = append(buf, ',')
			buf = append(buf, op...)
			buf = append(buf, ',')
			num(offset, pad)
			buf = append(buf, ',')
			num(size, pad)
			buf = append(buf, ",17"...)
		} else {
			if pad {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendUint(buf, z%64, 10)
			buf = append(buf, ',')
			buf = append(buf, op...)
			buf = append(buf, ',')
			num(offset, pad)
			buf = append(buf, ',')
			num(size, pad)
			buf = append(buf, ',')
			num(ts, pad)
		}
		if messy && i%11 == 10 {
			buf = append(buf, '\r')
		}
		buf = append(buf, '\n')
		if messy && i%13 == 12 {
			buf = append(buf, "\n\r\n"...)
		}
	}
	return buf
}

// oracle is the reference's answer for one input under one configuration.
type oracle struct {
	cfg     ReplayConfig
	input   []byte
	want    *referenceReplay
	wantErr error
}

func newOracle(t *testing.T, cfg ReplayConfig, input []byte) *oracle {
	t.Helper()
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{cfg: cfg, input: input}
	o.want, o.wantErr = cfg.ingestReference(bytes.NewReader(input), fleet)
	return o
}

// holds ingests the input through the pipeline in blocks of blockSize and
// fails unless it answers as the reference did: the same events, series and
// stats, or the same error.
func (o *oracle) holds(t *testing.T, blockSize int) {
	t.Helper()
	fleet, _ := fuzzFleet()
	got, gotErr := o.cfg.ingest(bytes.NewReader(o.input), fleet, blockSize)
	if o.wantErr != nil || gotErr != nil {
		if o.wantErr == nil || gotErr == nil || o.wantErr.Error() != gotErr.Error() {
			t.Fatalf("block %d: pipeline error %v, reference error %v", blockSize, gotErr, o.wantErr)
		}
		return
	}
	if got.stats != o.want.stats {
		t.Fatalf("block %d: stats %+v, reference %+v", blockSize, got.stats, o.want.stats)
	}
	if !reflect.DeepEqual(got.events, o.want.events) {
		t.Fatalf("block %d: events differ from the reference's", blockSize)
	}
	o.seriesHold(t, got, blockSize)
	for vd, evs := range got.events {
		// Allocated at their length, give or take the allocator's rounding
		// (a quarter at worst, for slices just past 32 KiB).
		if cap(evs) > len(evs)+len(evs)/4 {
			t.Fatalf("block %d: disk %d retains cap %d for %d events", blockSize, vd, cap(evs), len(evs))
		}
	}
}

// seriesHold compares got's demand series with the reference's over windows
// shorter than, as long as and longer than the trace — up to maxWindow
// seconds, which a far-future row's second would otherwise set.
func (o *oracle) seriesHold(t *testing.T, got *Replay, blockSize int) {
	t.Helper()
	const maxWindow = 64
	last := 0 // the last second below maxWindow that an event falls in
	for _, secs := range o.want.series {
		for sec := range secs {
			if sec < maxWindow {
				last = max(last, sec)
			}
		}
	}
	var buf []workload.Sample
	for _, window := range []int{last / 2, last + 1, last + 3} {
		for vd, secs := range o.want.series {
			buf = got.SeriesInto(buf, cluster.VDID(vd), window)
			for sec, smp := range buf {
				want := workload.Sample{}
				if s := secs[sec]; s != nil {
					want = *s
				}
				if smp != want {
					t.Fatalf("block %d: disk %d second %d of a %d s window: series %+v, reference %+v", blockSize, vd, sec, window, smp, want)
				}
			}
		}
	}
}

func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestIngestMatchesReference is the pipeline's differential oracle: for every
// input shape the ingest tolerates or rejects, at every sampling rate, core
// count and block size — down to blocks shorter than two rows, so every row
// straddles a block boundary at some size — it must answer exactly as the
// record-at-a-time reference does.
func TestIngestMatchesReference(t *testing.T) {
	sample := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tianchi, msr := sample("tianchi_sample.csv"), sample("msr_sample.csv")
	crlf := func(b []byte) []byte { return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n")) }

	type input struct {
		name, schema string
		data         []byte
	}
	small := []input{
		{"tianchi sample", SchemaAuto, tianchi},
		{"msr sample (header row)", SchemaAuto, msr},
		{"tianchi crlf", SchemaTianchi, crlf(tianchi)},
		{"msr crlf", SchemaMSR, crlf(msr)},
		{"tianchi header", SchemaTianchi, append([]byte("device_id,opcode,offset,length,timestamp\n"), tianchi...)},
		{"blank lines before a header", SchemaMSR, append([]byte("\n\r\n\n"), msr...)},
		{"no trailing newline", SchemaTianchi, bytes.TrimRight(tianchi, "\n")},
		{"cr at end of input", SchemaTianchi, append(bytes.TrimRight(tianchi, "\n"), '\r')},
		{"lone cr after the last line", SchemaTianchi, append(append([]byte(nil), tianchi...), '\r')},
		{"messy tianchi", SchemaTianchi, synthForeign(SchemaTianchi, 300, true)},
		{"messy msr", SchemaMSR, synthForeign(SchemaMSR, 300, true)},
		// Rejected inputs: the same error, the same line.
		{"wrong column count", SchemaMSR, []byte("1,src1,0,Read,0\n")},
		{"bad row after blank lines", SchemaTianchi, []byte("0,R,0,512,5\n\n\r\n1,X,0,512,6\n")},
		{"bad row in a crlf file", SchemaTianchi, []byte("0,R,0,512,5\r\n1,R,0,0,6\r\n")},
		{"header twice", SchemaTianchi, []byte("dev,op,off,len,ts\ndev,op,off,len,ts\n0,R,0,512,5\n")},
		{"header after a record", SchemaTianchi, []byte("0,R,0,512,5\ndev,op,off,len,ts\n")},
		{"header after blank lines", SchemaTianchi, []byte(strings.Repeat("\n", 70) + "dev,op,off,len,ts\n0,R,0,512,5\n")},
		{"header only", SchemaMSR, []byte("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")},
		{"negative timestamp first", SchemaTianchi, []byte("0,R,0,512,-1\n")},
		{"overflowing integer", SchemaTianchi, []byte("0,R,0,512,5\n0,R,9223372036854775808,512,6\n")},
		{"largest integer", SchemaTianchi, []byte("0,R,9223372036854775807,512,5\n0,R,-0,512,6\n")},
		{"smallest integer", SchemaTianchi, []byte("0,R,0,512,5\n0,R,-9223372036854775808,512,6\n")},
		{"below the smallest integer", SchemaTianchi, []byte("0,R,0,512,5\n0,R,0,-9223372036854775809,6\n")},
		{"nineteen digits", SchemaTianchi, []byte("0,R,0,512,5\n0,R,1000000000000000000,512,6\n0,R,0,512,9999999999999999999\n")},
		{"integer that wraps 64 bits", SchemaTianchi, []byte("0,R,0,512,5\n0,R,0,18446744073709551617,6\n")},
		{"empty field", SchemaTianchi, []byte("0,R,0,512,5\n0,R,,512,6\n")},
		{"sign only", SchemaTianchi, []byte("0,R,0,512,5\n0,R,0,-,6\n")},
		{"unicode space padding", SchemaTianchi, []byte("0,R,0, 512 ,5\n0,　w,0,512,6\n")},
		{"two bad rows", SchemaTianchi, append(append(synthForeign(SchemaTianchi, 40, false), "0,R,0,0,9\n"...), append(synthForeign(SchemaTianchi, 40, false), "0,X,0,1,9\n"...)...)},
		{"one long line", SchemaTianchi, []byte("0,R,0,512,5\n" + strings.Repeat("7", 700) + ",R,0,512,6\n0,R,0,512," + strings.Repeat(" ", 600) + "x\n")},
		{"only blank lines", SchemaTianchi, []byte("\n\r\n\n")},
	}
	step := 1 // every block size from 64 to 192 bytes: each row straddles a boundary at some
	if testing.Short() {
		step = 7
	}
	for _, in := range small {
		t.Run(in.name, func(t *testing.T) {
			for _, every := range []int{1, 3, 3200} {
				ref := newOracle(t, ReplayConfig{Path: "test", Schema: in.schema, SampleEvery: every, TimeScale: 1}, in.data)
				for _, procs := range []int{1, 2, 4} {
					withProcs(t, procs)
					for size := 64; size <= 192; size += step {
						ref.holds(t, size)
					}
					ref.holds(t, ingestBlockSize)
				}
			}
		})
	}

	rows, procs, sizes := 65536, []int{1, 2, 4}, []int{64, 1000, 4096, 1 << 16, ingestBlockSize}
	if testing.Short() {
		rows, procs, sizes = 8192, []int{1, 4}, []int{64, 4096, ingestBlockSize}
	}
	for _, schema := range []string{SchemaTianchi, SchemaMSR} {
		for _, messy := range []bool{false, true} {
			data := synthForeign(schema, rows, messy)
			t.Run(fmt.Sprintf("%s %d rows messy=%v", schema, rows, messy), func(t *testing.T) {
				for _, every := range []int{1, 3, 3200} {
					ref := newOracle(t, ReplayConfig{Path: "test", Schema: schema, SampleEvery: every, TimeScale: 0.5}, data)
					for _, p := range procs {
						withProcs(t, p)
						for _, size := range sizes {
							ref.holds(t, size)
						}
					}
				}
			})
		}
	}

	// Two shapes the per-disk grouping must get right: one disk whose rows
	// run through every block, and rows that change disk on every line.
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	nVDs := uint64(len(fleet.Topology.VDs))
	grouping := func(device func(i int, prev uint64) []byte) []byte {
		var buf []byte
		prev := nVDs // no disk
		for i := 0; i < rows/2; i++ {
			dev := device(i, prev)
			prev = fnv1a(fnvOffset64, dev) % nVDs
			buf = append(buf, dev...)
			buf = fmt.Appendf(buf, ",R,%d,4096,%d\n", (xrand.Mix64(uint64(i))>>16%4096)*4096, 1_000_000+i*37)
		}
		return buf
	}
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"one disk in every block", grouping(func(int, uint64) []byte { return []byte("7") })},
		{"a new disk every line", grouping(func(i int, prev uint64) []byte {
			for d := i; ; d++ {
				if dev := strconv.AppendInt(nil, int64(d), 10); fnv1a(fnvOffset64, dev)%nVDs != prev {
					return dev
				}
			}
		})},
	} {
		t.Run(in.name, func(t *testing.T) {
			for _, every := range []int{1, 3} {
				ref := newOracle(t, ReplayConfig{Path: "test", Schema: SchemaTianchi, SampleEvery: every, TimeScale: 1}, in.data)
				for _, p := range procs {
					withProcs(t, p)
					for _, size := range sizes {
						ref.holds(t, size)
					}
				}
			}
		})
	}
}

// TestParseIntMatchesStrconv holds parseInt, which reads digits eight at a
// time, to strconv.ParseInt of the trimmed field: every length up to 20
// digits, with each byte in turn replaced by one that is not a digit — the
// neighbours of '0' and '9' included, which a word-wide range test could
// miss.
func TestParseIntMatchesStrconv(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		want, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		got, ok := parseInt(b)
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("%q: parseInt %d, %v; strconv %d, %v", b, got, ok, want, err)
		}
	}
	for n := 0; n <= 20; n++ {
		for seed := uint64(0); seed < 64; seed++ {
			digits := make([]byte, n)
			for i := range digits {
				digits[i] = '0' + byte(xrand.Mix64(seed<<8|uint64(i))%10)
			}
			if seed == 1 { // the largest value of each length
				copy(digits, bytes.Repeat([]byte("9"), n))
			}
			check(digits)
			for i := range digits {
				for _, c := range []byte{'/', ':', ' ', '+', '-', 0, 0x80, 0xB0, 0xFF} {
					b := append([]byte(nil), digits...)
					b[i] = c
					check(b)
				}
			}
		}
	}
}

// TestIngestSaturatesRebasedTime: a row whose rebased time passes 2^63 µs is
// kept at the largest time, beyond every window, and is not counted as
// reordered. The float-to-int64 conversion it went through gave MinInt64 on
// amd64, so the row was counted as reordered and replayed at t = 0.
func TestIngestSaturatesRebasedTime(t *testing.T) {
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{Path: "test", Schema: SchemaTianchi, SampleEvery: 1, TimeScale: 1000}
	data := []byte("1,R,0,4096,0\n1,R,0,4096,9000000000000000000\n")
	ref, err := cfg.ingestReference(bytes.NewReader(data), fleet)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.Ingest(bytes.NewReader(data), fleet)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replay{ref.Replay, got} {
		if r.stats.Kept != 2 || r.stats.Reordered != 0 {
			t.Fatalf("stats %+v, want 2 kept and none reordered", r.stats)
		}
		var times []int64
		ios := 0.0
		for vd, evs := range r.events {
			for _, ev := range evs {
				times = append(times, ev.TimeUS)
			}
			for _, smp := range r.SeriesInto(nil, cluster.VDID(vd), 12) {
				ios += smp.ReadIOPS
			}
		}
		if !reflect.DeepEqual(times, []int64{0, math.MaxInt64}) || ios != 1 {
			t.Fatalf("event times %v and %g IOs in a 12 s window, want [0 %d] and 1", times, ios, int64(math.MaxInt64))
		}
	}
}

// streamedTrace generates a trace as it is read, without ever holding it:
// line appends row i (0-based) to buf, and before, when set, runs ahead of
// every Read with the bytes served so far.
type streamedTrace struct {
	rows    int // how many rows there are; 0 for a trace that never ends
	line    func(buf []byte, i int) []byte
	before  func(served int)
	row     int
	served  int
	pending []byte
}

func (s *streamedTrace) Read(p []byte) (int, error) {
	if s.before != nil {
		s.before(s.served)
	}
	for len(s.pending) < len(p) && (s.rows == 0 || s.row < s.rows) {
		s.pending = s.line(s.pending, s.row)
		s.row++
	}
	if len(s.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.pending)
	s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	s.served += n
	return n, nil
}

// TestIngestErrorLeavesNoGoroutines holds the pipeline's shutdown to its
// contract: an error stops the reader and the parsers, and Ingest returns
// only after they and the sequencer have exited.
func TestIngestErrorLeavesNoGoroutines(t *testing.T) {
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{Path: "test", Schema: SchemaTianchi, SampleEvery: 1, TimeScale: 1}
	const blockSize = 4096
	settled := func(baseline int) bool {
		for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() <= baseline
	}

	t.Run("bad row in an endless input", func(t *testing.T) {
		for _, procs := range []int{1, 4} {
			withProcs(t, procs)
			baseline := runtime.NumGoroutine()
			// The bad row sits in the third block. What the pipeline may
			// still read once it is found is what it can have in flight.
			const bad = 500
			// Past that, Read blocks until the test is over — which is how a
			// pipeline that keeps reading after its error shows up: as a
			// hang, not a pass.
			limit, release := 3*blockSize+(2*procs+4)*blockSize+64<<10, make(chan struct{})
			src := &streamedTrace{
				line: func(buf []byte, i int) []byte {
					if i+1 == bad {
						return append(buf, "3,R,4096,0,7\n"...)
					}
					buf = append(buf, "3,R,4096,512,"...)
					buf = strconv.AppendInt(buf, int64(1_000_000+i), 10)
					return append(buf, '\n')
				},
				before: func(served int) {
					if served >= limit {
						<-release
					}
				},
			}
			type result struct {
				rp  *Replay
				err error
			}
			done := make(chan result, 1)
			go func() {
				rp, err := cfg.ingest(src, fleet, blockSize)
				done <- result{rp, err}
			}()
			select {
			case res := <-done:
				if res.err == nil || !strings.Contains(res.err.Error(), fmt.Sprintf("line %d: size 0", bad)) {
					t.Errorf("GOMAXPROCS %d: got %v, want the error of line %d", procs, res.err, bad)
				}
			case <-time.After(30 * time.Second):
				close(release)
				t.Fatalf("GOMAXPROCS %d: ingest kept reading after the error at row %d", procs, bad)
			}
			close(release)
			if !settled(baseline) {
				t.Errorf("GOMAXPROCS %d: %d goroutines after the ingest returned, %d before it", procs, runtime.NumGoroutine(), baseline)
			}
		}
	})

	t.Run("failing reader", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		boom := errors.New("disk on fire")
		good := synthForeign(SchemaTianchi, 1000, false)
		// The failure arrives mid-line; the 1000 whole lines before it are
		// still validated, and the error names the line that never finished.
		_, err := cfg.ingest(io.MultiReader(bytes.NewReader(good), strings.NewReader("3,R,40"), iotest.ErrReader(boom)), fleet, blockSize)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "line 1001:") {
			t.Errorf("got %v, want %q at line 1001", err, boom)
		}
		// A malformed line ahead of the failure is the earlier error.
		_, err = cfg.ingest(io.MultiReader(bytes.NewReader(good), strings.NewReader("3,R,40,0,9\n"), iotest.ErrReader(boom)), fleet, blockSize)
		if err == nil || !strings.Contains(err.Error(), "line 1001: size 0") {
			t.Errorf("got %v, want the malformed line 1001", err)
		}
		if !settled(baseline) {
			t.Errorf("%d goroutines after the ingests returned, %d before them", runtime.NumGoroutine(), baseline)
		}
	})
}

// TestIngestSteadyStateAllocs pins what an ingest allocates: the per-disk
// event and series slices (O(log rows) regrowths each), not something per row.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReplayConfig{Path: "test", Schema: SchemaTianchi, SampleEvery: 1, TimeScale: 1}
	allocs := func(rows int) float64 {
		data := synthForeign(SchemaTianchi, rows, false)
		return testing.AllocsPerRun(2, func() {
			if _, err := cfg.Ingest(bytes.NewReader(data), fleet); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(65536), allocs(400000)
	t.Logf("allocations per ingest: %.0f at 65,536 rows, %.0f at 400,000", small, large)
	if small > 2000 || large > 2000 {
		t.Errorf("allocations per ingest: %.0f at 65,536 rows, %.0f at 400,000; want <= 2000", small, large)
	}
	if large > 2*small {
		t.Errorf("allocations grew %.1fx for 6.1x the rows: something allocates per row", large/small)
	}
}

// TestIngestStreamsInBoundedMemory feeds the ingest a trace ten times the
// bound below and thinned at the paper's tracing rate: the heap in use while
// it streams must stay under a bound that has nothing to do with the rows.
func TestIngestStreamsInBoundedMemory(t *testing.T) {
	fleet, err := fuzzFleet()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 16 << 20
	sizes := []int{1_000_000, 4_000_000} // ~30 MB and ~120 MB of CSV
	if testing.Short() {
		sizes = sizes[:1]
	}
	cfg := ReplayConfig{Path: "test", Schema: SchemaTianchi, SampleEvery: 3200, TimeScale: 1}
	for _, rows := range sizes {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var reads int
		var peakInuse uint64
		src := &streamedTrace{
			rows: rows,
			line: func(buf []byte, i int) []byte {
				z := xrand.Mix64(uint64(i))
				buf = strconv.AppendUint(buf, z%64, 10)
				buf = append(buf, ",R,"...)
				buf = strconv.AppendUint(buf, (z>>16%4096)*4096, 10)
				buf = append(buf, ",4096,"...)
				buf = strconv.AppendUint(buf, 1_000_000+uint64(i)*2, 10)
				return append(buf, '\n')
			},
			before: func(int) { // sample the heap as the trace streams
				if reads++; reads%8 == 0 {
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					peakInuse = max(peakInuse, m.HeapInuse)
				}
			},
		}
		rp, err := cfg.Ingest(src, fleet)
		if err != nil {
			t.Fatal(err)
		}
		if rp.stats.Records != rows || rp.stats.Kept == 0 {
			t.Fatalf("stats %+v, want %d records", rp.stats, rows)
		}
		grew := int64(peakInuse) - int64(before.HeapInuse)
		t.Logf("%d rows: heap in use peaked %.1f MiB above the %.1f MiB it started at", rows, float64(grew)/(1<<20), float64(before.HeapInuse)/(1<<20))
		if grew > bound {
			t.Errorf("%d rows: heap in use grew by %d MiB while streaming, want <= %d MiB", rows, grew>>20, bound>>20)
		}
	}
}
