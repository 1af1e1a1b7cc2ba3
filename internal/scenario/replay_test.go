package scenario_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebslab/internal/control"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/trace"
)

// TestReplayNativeRoundTrip is the metamorphic replay oracle: a native run
// traced in full, written out, and replayed back through the engine must
// reproduce the original dataset fingerprint exactly — records, metric rows,
// and all. Both native codecs must satisfy it.
func TestReplayNativeRoundTrip(t *testing.T) {
	f := scenarioFleet(t)
	opts := ebs.Options{
		DurationSec:      8,
		TraceSampleEvery: 1,
		EventSampleEvery: 1,
		MaxVDs:           8,
	}
	orig, err := ebs.New(f).Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	origFP := invariant.Fingerprint(orig)

	write := map[string]func(path string) error{
		"jsonl": func(path string) error {
			fh, err := os.Create(path)
			if err != nil {
				return err
			}
			defer fh.Close()
			return trace.WriteTraceJSONL(fh, orig.Trace)
		},
		"csv": func(path string) error {
			fh, err := os.Create(path)
			if err != nil {
				return err
			}
			defer fh.Close()
			return trace.WriteTraceCSV(fh, orig.Trace)
		},
	}
	for name, save := range write {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace."+name)
			if err := save(path); err != nil {
				t.Fatal(err)
			}
			wl := bindSpec(t, f, "replay,path="+path)
			rp := wl.(*scenario.Replay)
			if !rp.SourcesRecords() {
				t.Fatal("native replay must be record-sourced")
			}
			if st := rp.Stats(); st.Records != len(orig.Trace) || st.Kept != len(orig.Trace) {
				t.Fatalf("ingest stats %+v, want all %d records kept", st, len(orig.Trace))
			}
			ropts := opts
			ropts.Scenario = wl
			ropts.EventSampleEvery = rp.EventSampleEvery()
			got, err := ebs.New(f).Run(context.Background(), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if gotFP := invariant.Fingerprint(got); gotFP != origFP {
				t.Errorf("replayed fingerprint %s, original %s", gotFP, origFP)
			}
		})
	}
}

// TestReplayRecordSourceRejectsControl pins the engine-side contract: a
// record-sourced replay carries measured latencies the control plane cannot
// re-actuate, so composing the two must fail loudly.
func TestReplayRecordSourceRejectsControl(t *testing.T) {
	f := scenarioFleet(t)
	orig, err := ebs.New(f).Run(context.Background(), ebs.Options{
		DurationSec: 2, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceJSONL(fh, orig.Trace); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	wl := bindSpec(t, f, "replay,path="+path)
	opts := ebs.Options{
		DurationSec: 2, TraceSampleEvery: 1, EventSampleEvery: 1,
		Scenario: wl,
	}
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ebs.New(f).RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 1}); err == nil ||
		!strings.Contains(err.Error(), "control plane") {
		t.Fatalf("record-sourced replay + control: got %v, want control-plane rejection", err)
	}
}

func ingest(t *testing.T, cfg scenario.ReplayConfig, input string) (*scenario.Replay, error) {
	t.Helper()
	if cfg.Schema == "" {
		cfg.Schema = scenario.SchemaAuto
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	cfg.Path = "test-input"
	return cfg.Ingest(strings.NewReader(input), scenarioFleet(t))
}

func TestReplayForeignSchemas(t *testing.T) {
	msr, err := os.ReadFile(filepath.Join("testdata", "msr_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tianchi, err := os.ReadFile(filepath.Join("testdata", "tianchi_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, schema, input string
	}{
		{"msr sniffed", "", string(msr)},
		{"msr explicit", scenario.SchemaMSR, string(msr)},
		{"tianchi sniffed", "", string(tianchi)},
		{"tianchi explicit", scenario.SchemaTianchi, string(tianchi)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := ingest(t, scenario.ReplayConfig{Schema: tc.schema}, tc.input)
			if err != nil {
				t.Fatal(err)
			}
			if rp.SourcesRecords() {
				t.Error("foreign replay must normalise into events, not records")
			}
			st := rp.Stats()
			if st.Records != 60 || st.Kept != 60 {
				t.Errorf("stats %+v, want 60 records kept", st)
			}
			// Ingest is deterministic: a second pass answers identically.
			again, err := ingest(t, scenario.ReplayConfig{Schema: tc.schema}, tc.input)
			if err != nil {
				t.Fatal(err)
			}
			if again.Stats() != st {
				t.Errorf("second ingest stats %+v, first %+v", again.Stats(), st)
			}
		})
	}
}

func TestReplaySamplingThinsDeterministically(t *testing.T) {
	tianchi, err := os.ReadFile(filepath.Join("testdata", "tianchi_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ingest(t, scenario.ReplayConfig{}, string(tianchi))
	if err != nil {
		t.Fatal(err)
	}
	thin, err := ingest(t, scenario.ReplayConfig{SampleEvery: 4}, string(tianchi))
	if err != nil {
		t.Fatal(err)
	}
	if got, all := thin.Stats().Kept, full.Stats().Kept; got >= all || got == 0 {
		t.Errorf("sample=4 kept %d of %d, want a proper nonempty subset", got, all)
	}
	if thin.EventSampleEvery() != 4 {
		t.Errorf("EventSampleEvery = %d, want the ingest rate 4", thin.EventSampleEvery())
	}
	again, err := ingest(t, scenario.ReplayConfig{SampleEvery: 4}, string(tianchi))
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats() != thin.Stats() {
		t.Errorf("sampling is not deterministic: %+v vs %+v", again.Stats(), thin.Stats())
	}
}

// TestReplayRejectsMalformed hardens the foreign decoders: every malformed
// input dies with a positional error, never a silent skip or a panic.
func TestReplayRejectsMalformed(t *testing.T) {
	cases := map[string]struct {
		schema, input string
		wantSub       string
	}{
		"msr wrong column count": {scenario.SchemaMSR, "1,src1,0,Read,0\n", "column"},
		"msr negative timestamp": {scenario.SchemaMSR, "-5,src1,0,Read,0,4096,1\n", "timestamp"},
		"msr negative offset":    {scenario.SchemaMSR, "5,src1,0,Read,-4096,4096,1\n", "offset"},
		"msr zero size":          {scenario.SchemaMSR, "5,src1,0,Read,0,0,1\n", "size"},
		"msr negative size":      {scenario.SchemaMSR, "5,src1,0,Read,0,-1,1\n", "size"},
		// Unparseable first lines are tolerated as column headers, so the
		// op/NaN probes put the malformed row on line 2.
		"msr unknown op":        {scenario.SchemaMSR, "5,src1,0,Read,0,4096,1\n6,src1,0,Flush,0,4096,1\n", "op"},
		"msr non-integer field": {scenario.SchemaMSR, "5,src1,0,Read,zero,4096,1\n", ""},
		"msr NaN timestamp":     {scenario.SchemaMSR, "5,src1,0,Read,0,4096,1\nNaN,src1,0,Read,0,4096,1\n", ""},
		"msr header only":       {scenario.SchemaMSR, "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n", "nothing to simulate"},
		"tianchi wrong columns": {scenario.SchemaTianchi, "0,R,0,512\n", "column"},
		"tianchi negative ts":   {scenario.SchemaTianchi, "0,R,0,512,-1\n", "timestamp"},
		"tianchi zero size":     {scenario.SchemaTianchi, "0,R,0,0,5\n", "size"},
		"tianchi unknown op":    {scenario.SchemaTianchi, "0,R,0,512,5\n1,X,0,512,6\n", "op"},
		// Positions are physical lines: blank lines and CRLF count as the
		// editor showing the file would count them, in every block.
		"blank line before bad": {scenario.SchemaTianchi, "0,R,0,512,5\n\n1,X,0,512,6\n", "line 3: opcode"},
		"crlf file":             {scenario.SchemaTianchi, "0,R,0,512,5\r\n\r\n1,R,0,0,6\r\n", "line 3: size"},
		"bad row in block two":  {scenario.SchemaTianchi, strings.Repeat("0,R,0,512,1000000\n", 20000) + "0,R,-8,512,1000000\n", "line 20001: offset"},
		"msr quoted fields":     {scenario.SchemaMSR, "5,src1,0,Read,0,4096,1\n\"6\",\"src1\",0,Read,0,4096,1\n", "line 2: column 1: quoted fields are not supported"},
		"tianchi quoted device": {scenario.SchemaTianchi, "a\"b,R,0,512,5\n", "line 1: column 2: quoted"},
		"native jsonl garbage":  {scenario.SchemaNativeJSONL, "{nope}\n", ""},
		"native csv garbage":    {scenario.SchemaNativeCSV, "not,a,trace\n", ""},
		"empty input":           {scenario.SchemaAuto, "", ""},
		"unsniffable input":     {scenario.SchemaAuto, "what even is this\n", ""},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ingest(t, scenario.ReplayConfig{Schema: tc.schema}, tc.input)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// Positional errors carry the line number of the offending record.
	bad := "1000,src1,0,Read,0,4096,1\n2000,src1,0,Read,0,-1,1\n"
	if _, err := ingest(t, scenario.ReplayConfig{Schema: scenario.SchemaMSR}, bad); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("second-line error lacks its position: %v", err)
	}
}

// TestReplayForeignClamping pins the normalisation rules for records that do
// not fit the target VD: offsets wrap into the disk span sector-aligned,
// sizes round up to 4KiB, and early timestamps clamp to the window start —
// all counted in the ingest stats.
func TestReplayForeignClamping(t *testing.T) {
	// Second record rewinds time; third has a huge offset; fourth a tiny
	// unaligned size.
	input := "0,R,0,512,1000000\n" +
		"1,W,4096,512,999000\n" +
		"2,R,92233720368547758,4096,1000500\n" +
		"3,W,4096,100,1000600\n"
	f := scenarioFleet(t)
	cfg := scenario.ReplayConfig{Path: "test-input", Schema: scenario.SchemaTianchi, SampleEvery: 1, TimeScale: 1}
	rp, err := cfg.Ingest(strings.NewReader(input), f)
	if err != nil {
		t.Fatal(err)
	}
	st := rp.Stats()
	if st.Records != 4 || st.Kept != 4 {
		t.Fatalf("stats %+v, want 4 records kept", st)
	}
	if st.Reordered != 1 {
		t.Errorf("Reordered = %d, want 1 (the rewound timestamp)", st.Reordered)
	}
	if st.Clamped == 0 {
		t.Error("Clamped = 0, want the out-of-span offset counted")
	}
	opts := ebs.Options{DurationSec: 4, TraceSampleEvery: 1, EventSampleEvery: 1, Scenario: rp}
	ds, err := ebs.New(f).Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Trace {
		r := &ds.Trace[i]
		if r.Offset%(4<<10) != 0 {
			t.Errorf("record %d: offset %d not sector-aligned", i, r.Offset)
		}
		if r.Size < 4<<10 || r.Size > 4<<20 {
			t.Errorf("record %d: size %d outside [4KiB, 4MiB]", i, r.Size)
		}
		if r.TimeUS < 0 {
			t.Errorf("record %d: negative time %d", i, r.TimeUS)
		}
	}
}
