package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ebslab/internal/fabric"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke from the current stdout")

// smoke is one process-level check: ebssim run on a command line, its exit
// code, and for a successful run its stdout byte for byte against
// testdata/smoke/<name>.out.
type smoke struct {
	name string
	args string // the flags; $TMP is the row's temporary directory
	code int    // the exit code the row must return
	// stderr is text a rejected row's stderr must carry.
	stderr string
	// prep readies $TMP once before the row runs and returns the first line
	// the row's stdout must have ("" = any).
	prep func(t *testing.T, tmp string) string
	// same is a command line whose stdout the row's must equal.
	same string
	// workers > 0 joins that many TCP fabric workers to the coordinator a
	// -workers-addr row serves.
	workers int
}

// TestSmokes runs every process-level check of ebssim in process: the
// chaos, fabric (loopback, TCP), control and
// scenario rows, and the command lines validation must refuse. Each row runs
// twice and must print the same bytes both times, and no goroutine may
// outlive a run.
func TestSmokes(t *testing.T) {
	const (
		fabricStudy   = "-seed 7 -dur 15 -nodes 4 -max-vds 24"
		controlStudy  = "-seed 7 -dur 24 -nodes 4 -max-vds 24"
		scenarioStudy = "-seed 7 -dur 12 -nodes 4 -max-vds 24"
		traces        = "../../internal/scenario/testdata/"
	)
	rows := []smoke{
		{name: "chaos", args: "-seed 7 -dur 20 -nodes 4 -max-vds 24 -chaos"},
		{name: "dist", args: fabricStudy + " -dist 2 -shards 5 -stream"},
		{name: "dist-tcp", args: fabricStudy + " -workers-addr 127.0.0.1:0", workers: 2, same: fabricStudy},
		{name: "control-predictive", args: controlStudy + " -control predictive -chaos -storms 4"},
		{name: "control-oracle", args: controlStudy + " -control oracle"},
		{name: "scenario-bufferbloat", args: scenarioStudy + " -scenario bufferbloat,period=8,duty=0.5"},
		{name: "scenario-batchburst", args: scenarioStudy + " -scenario batchburst,wave=6,width=2 -chaos"},
		{name: "scenario-elastic", args: scenarioStudy + " -scenario elastic,hi=2,step=3 -control predictive"},
		{name: "scenario-msr", args: scenarioStudy + " -scenario replay,path=" + traces + "msr_sample.csv"},
		{name: "scenario-tianchi", args: scenarioStudy + " -scenario replay,path=" + traces + "tianchi_sample.csv -stream"},
		// The tianchi sample as a spreadsheet saves it: CRLF line ends under
		// a header row.
		{name: "scenario-crlf", args: scenarioStudy + " -scenario replay,path=$TMP/tianchi_crlf.csv",
			prep: func(t *testing.T, tmp string) string {
				raw, err := os.ReadFile(traces + "tianchi_sample.csv")
				if err != nil {
					t.Fatal(err)
				}
				crlf := "device_id,opcode,offset,length,timestamp\n" + string(raw)
				crlf = strings.ReplaceAll(crlf, "\n", "\r\n")
				if err := os.WriteFile(filepath.Join(tmp, "tianchi_crlf.csv"), []byte(crlf), 0o644); err != nil {
					t.Fatal(err)
				}
				return ""
			}},
		// An -out export replayed under the same study flags simulates the
		// same IOs: the two runs' header lines must match.
		{name: "scenario-export-replay", args: scenarioStudy + " -scenario replay,path=$TMP/trace.csv",
			prep: func(t *testing.T, tmp string) string {
				out := runRow(t, smoke{args: scenarioStudy + " -out $TMP"}, tmp)
				return out[:strings.IndexByte(out, '\n')]
			}},

		{name: "reject-shards-without-fabric", args: "-shards 3", code: 2, stderr: "-shards 3 cuts the study for the fabric"},
		{name: "reject-replay-on-fabric", args: "-dist 2 -scenario replay,path=" + traces + "msr_sample.csv", code: 2,
			stderr: "-scenario replay,... conflict with the distributed roles"},
		{name: "reject-one-profile-file", args: "-cpuprofile $TMP/x -memprofile $TMP/x", code: 2,
			stderr: "-cpuprofile and -memprofile both name"},
	}
	// os/signal's delivery goroutine starts on the first Notify and never
	// stops; start it here so no run is charged for it.
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tmp := t.TempDir()
			header := ""
			if row.prep != nil {
				header = row.prep(t, tmp)
			}
			var outs [2]string
			for pass := range outs {
				outs[pass] = runRow(t, row, tmp)
			}
			if outs[1] != outs[0] {
				t.Fatalf("second run printed different stdout:\n%s", lineDiff(outs[1], outs[0]))
			}
			if row.code != 0 {
				return
			}
			if header != "" && !strings.HasPrefix(outs[0], header+"\n") {
				t.Errorf("stdout does not start with %q", header)
			}
			if row.same != "" {
				if ref := runRow(t, smoke{args: row.same}, tmp); outs[0] != ref {
					t.Errorf("stdout differs from %q's:\n%s", row.same, lineDiff(outs[0], ref))
				}
			}
			checkSmokeOut(t, row.name, outs[0])
		})
	}
}

// runRow runs one row in process and returns its stdout, the temp dir written
// as $TMP. It fails the test on the wrong exit code, on a rejected row
// printing anything on stdout or not naming its cause on stderr, and on a
// goroutine the run leaves behind.
func runRow(t *testing.T, row smoke, tmp string) string {
	t.Helper()
	args := strings.Fields(strings.ReplaceAll(row.args, "$TMP", tmp))
	base := runtime.NumGoroutine()
	var stdout, stderr bytes.Buffer
	var code int
	if row.workers > 0 {
		code = runWithWorkers(t, args, row.workers, &stdout, &stderr)
	} else {
		code = run(args, &stdout, &stderr)
	}
	if code != row.code {
		t.Fatalf("ebssim %s: exit %d, want %d; stderr:\n%s", strings.Join(args, " "), code, row.code, stderr.String())
	}
	if row.code != 0 && (stdout.Len() > 0 || !strings.Contains(stderr.String(), row.stderr)) {
		t.Fatalf("rejected with stdout %q and stderr %q, want no stdout and a stderr naming %q", stdout.String(), stderr.String(), row.stderr)
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after run returned, %d before it:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
	return strings.ReplaceAll(stdout.String(), tmp, "$TMP")
}

// runWithWorkers runs a -workers-addr command line on a goroutine and, once
// the coordinator announces its address on stderr, joins n TCP workers to it
// the way cmd/ebsd does: fabric.RunWorker dialling that address.
func runWithWorkers(t *testing.T, args []string, n int, stdout, stderr *bytes.Buffer) int {
	pr, pw := io.Pipe()
	code := make(chan int, 1)
	go func() {
		defer pw.Close()
		code <- run(args, stdout, pw)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, n)
	joined := 0
	for sc := bufio.NewScanner(pr); sc.Scan(); {
		fmt.Fprintln(stderr, sc.Text())
		var addr string
		if _, err := fmt.Sscanf(sc.Text(), "ebssim: waiting for workers on %s", &addr); err != nil || joined > 0 {
			continue
		}
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		for ; joined < n; joined++ {
			go func() { errs <- fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: dial}) }()
		}
	}
	for ; joined > 0; joined-- {
		if err := <-errs; err != nil {
			t.Errorf("TCP worker: %v", err)
		}
	}
	return <-code
}

// checkSmokeOut compares a row's stdout with testdata/smoke/<name>.out, or
// rewrites the file under -update.
func checkSmokeOut(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "smoke", name+".out")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s (go test ./cmd/ebssim -run TestSmokes -update rewrites it):\n%s", path, lineDiff(got, string(want)))
	}
}

// lineDiff names the first line at which got and want differ.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
