package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/ebs"
	"ebslab/internal/workload"
)

// TestDefaultStudyRunSpec pins the run ebssim makes with no flags: the
// default study must map onto exactly the run description ebssim built by
// hand before its flags were bound to the study, checked as every study is.
func TestDefaultStudyRunSpec(t *testing.T) {
	want := ebs.RunSpec{
		Fleet: workload.SingleDC(1, 16, 16, 60),
		Opts:  ebs.Options{DurationSec: 60, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 120, Check: true},
	}
	if got := defaultStudy().RunSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("default run\n%+v\nwant\n%+v", got, want)
	}
}

// TestValidateFlagsMatrix walks the role flags (-dist, -workers-addr,
// -shards) and their conflict corners, the profile flags (valid with every role)
// and the run spec run builds from the remaining flags: every contradictory
// combination and every invalid value must be rejected with an error naming
// the flags or fields involved, and every sensible one accepted.
func TestValidateFlagsMatrix(t *testing.T) {
	reactive := func(dur, epochSec int) ebs.RunSpec {
		return ebs.RunSpec{Opts: ebs.Options{DurationSec: dur}, Control: "reactive", EpochSec: epochSec}
	}
	cases := []struct {
		name    string
		f       roleFlags
		spec    ebs.RunSpec
		wantErr []string // substrings the error must carry; empty = valid
	}{
		{"single process", roleFlags{}, ebs.RunSpec{}, nil},
		{"dist", roleFlags{dist: 2}, ebs.RunSpec{}, nil},
		{"tcp coordinator", roleFlags{workersAddr: ":9000"}, ebs.RunSpec{}, nil},
		{"scenario", roleFlags{}, ebs.RunSpec{Scenario: "bufferbloat"}, nil},
		{"scenario with params", roleFlags{}, ebs.RunSpec{Scenario: "elastic,step=10,hi=2"}, nil},
		{"scenario with control", roleFlags{}, ebs.RunSpec{Scenario: "batchburst", Control: "predictive"}, nil},
		{"scenario with dist", roleFlags{dist: 2}, ebs.RunSpec{Scenario: "bufferbloat"}, nil},
		{"replay", roleFlags{}, ebs.RunSpec{Scenario: "replay,path=testdata/trace.jsonl"}, nil},
		{"profiles single process", roleFlags{cpuProfile: "cpu.prof", memProfile: "mem.prof"}, ebs.RunSpec{}, nil},
		{"profiles with dist", roleFlags{dist: 2, cpuProfile: "cpu.prof", memProfile: "mem.prof"}, ebs.RunSpec{}, nil},
		{"cpu profile with tcp coordinator", roleFlags{workersAddr: ":9000", cpuProfile: "cpu.prof"}, ebs.RunSpec{}, nil},
		{"mem profile with control", roleFlags{memProfile: "mem.prof"}, reactive(0, 0), nil},
		{"timing with control", roleFlags{timing: true}, reactive(0, 0), nil},
		{"control with an epoch inside the window", roleFlags{}, reactive(8, 7), nil},
		{"control on a one-second window", roleFlags{}, reactive(1, 0), nil},

		{"dist and workers-addr conflict", roleFlags{dist: 2, workersAddr: ":9000"}, ebs.RunSpec{},
			[]string{"-dist", "-workers-addr"}},
		{"replay with dist", roleFlags{dist: 2}, ebs.RunSpec{Scenario: "replay,path=x"},
			[]string{"-scenario replay", "-dist"}},
		{"replay scenario with workers-addr", roleFlags{workersAddr: ":9000"}, ebs.RunSpec{Scenario: "replay,path=x"},
			[]string{"-workers-addr", "single-process"}},
		{"control with dist", roleFlags{dist: 2}, reactive(0, 0),
			[]string{"-control", "-dist", "single-process"}},
		{"epoch-sec without control", roleFlags{}, ebs.RunSpec{EpochSec: 3}, []string{"EpochSec", "Control"}},
		{"epoch-sec as long as the window", roleFlags{}, reactive(8, 100),
			[]string{"epoch 100s", "8s window"}},
		{"profiles into one file", roleFlags{dist: 2, cpuProfile: "run.prof", memProfile: "run.prof"}, ebs.RunSpec{},
			[]string{"-cpuprofile", "-memprofile", "run.prof"}},
		{"unknown scenario", roleFlags{}, ebs.RunSpec{Scenario: "quakestorm"},
			[]string{"quakestorm"}},
		{"bad scenario param", roleFlags{}, ebs.RunSpec{Scenario: "elastic,bogus=1"},
			[]string{"bogus"}},
		{"timing with dist", roleFlags{dist: 2, timing: true}, ebs.RunSpec{},
			[]string{"-timing", "-dist", "-workers-addr"}},
		{"timing with tcp coordinator", roleFlags{workersAddr: ":9000", timing: true}, ebs.RunSpec{},
			[]string{"-timing", "-workers-addr"}},
		{"negative dist", roleFlags{dist: -1}, ebs.RunSpec{}, []string{"-dist -1"}},
		{"negative shards", roleFlags{dist: 2, shards: -3}, ebs.RunSpec{}, []string{"-shards -3"}},
		{"shards without a distributed role", roleFlags{shards: 5}, ebs.RunSpec{},
			[]string{"-shards 5", "-dist", "-workers-addr"}},
		{"negative workers", roleFlags{}, ebs.RunSpec{Opts: ebs.Options{Workers: -2}},
			[]string{"Options.Workers is -2"}},
		{"negative max-vds", roleFlags{}, ebs.RunSpec{Opts: ebs.Options{MaxVDs: -5}},
			[]string{"Options.MaxVDs is -5"}},
		{"negative chaos crashes", roleFlags{}, ebs.RunSpec{Opts: ebs.Options{Chaos: &chaos.Plan{BSCrashes: -1}}},
			[]string{"Chaos", "BSCrashes is -1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.f, tc.spec)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("contradictory combination accepted")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestSimulatedVDs pins the disk count the header line reports: the disks
// the run covered, not the flag's value — -max-vds 0 means the whole fleet
// and a cap past the fleet's end adds no disks.
func TestSimulatedVDs(t *testing.T) {
	for _, c := range []struct{ maxVDs, fleet, want int }{
		{0, 120, 120},
		{60, 120, 60},
		{120, 120, 120},
		{500, 120, 120},
	} {
		if got := simulatedVDs(c.maxVDs, c.fleet); got != c.want {
			t.Errorf("simulatedVDs(%d, %d) = %d, want %d", c.maxVDs, c.fleet, got, c.want)
		}
	}
}

// TestStartProfiles drives the -cpuprofile/-memprofile plumbing: both files
// must exist and be non-empty once the stop function has run, stopping must
// leave the process able to start a CPU profile again, and an uncreatable
// path must fail up front instead of at the end of a long run.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	for round := 0; round < 2; round++ {
		stop, err := startProfiles(cpu, mem, io.Discard)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		stop()
		for _, path := range []string{cpu, mem} {
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Fatalf("round %d: profile %s missing or empty (%v)", round, path, err)
			}
		}
	}
	if _, err := startProfiles(filepath.Join(dir, "no-such-dir", "cpu.prof"), "", io.Discard); err == nil {
		t.Fatal("an uncreatable -cpuprofile path was accepted")
	}
	stop, err := startProfiles("", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	stop() // no flags: nothing to do, nothing written
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("%d files in the profile directory, want the 2 requested", len(entries))
	}
}

// TestTimingLeavesStdout: -timing prints the stage table on stderr, one line
// per stage, and stdout stays the same bytes as without it — for a plain run,
// a controlled one, whose observe and plan clocks read > 0, and a replay,
// whose bind clock (the ingest) reads > 0.
func TestTimingLeavesStdout(t *testing.T) {
	for _, line := range []string{
		"-seed 7 -dur 12 -nodes 4 -max-vds 24 -stream",
		"-seed 7 -dur 12 -nodes 4 -max-vds 24 -control reactive -epoch-sec 3",
		"-seed 7 -dur 12 -nodes 4 -max-vds 24 -scenario replay,path=../../internal/scenario/testdata/tianchi_sample.csv",
	} {
		args := strings.Fields(line)
		var plain, timed, stderr bytes.Buffer
		if code := run(args, &plain, io.Discard); code != 0 {
			t.Fatalf("%s: exit %d", line, code)
		}
		if code := run(append(args, "-timing"), &timed, &stderr); code != 0 {
			t.Fatalf("%s -timing: exit %d; stderr:\n%s", line, code, stderr.String())
		}
		if timed.String() != plain.String() {
			t.Fatalf("%s: -timing changed stdout", line)
		}
		for _, stage := range []string{"bind", "observe", "plan", "generate", "throttle", "latency", "emit", "sketch", "finish", "check"} {
			if !strings.Contains(stderr.String(), "\n  "+stage+" ") {
				t.Errorf("%s: stderr has no %s line:\n%s", line, stage, stderr.String())
			}
		}
		controlled, bound := strings.Contains(line, "-control"), strings.Contains(line, "-scenario")
		for _, st := range []struct {
			stage string
			ran   bool
		}{{"bind", bound}, {"observe", controlled}, {"plan", controlled}} {
			zero := strings.Contains(stderr.String(), fmt.Sprintf("\n  %-8s %10.3f\n", st.stage, 0.0))
			if zero == st.ran {
				t.Errorf("%s: the %s clock reads zero is %v, want %v:\n%s", line, st.stage, zero, !st.ran, stderr.String())
			}
		}
	}
}
