package main

import (
	"bytes"
	"flag"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke from the current stdout")

// TestSmokes runs every process-level check of ebsgate in process: the
// selftest — one study served over loopback TCP, its snapshots streamed and
// its fingerprints held to a direct run — plain, scenario-shaped and under a
// control policy; and the command line without a mode. Each row runs twice
// and must print the bytes of testdata/smoke/<name>.out both times, and no
// goroutine may outlive a run.
func TestSmokes(t *testing.T) {
	const study = "-selftest -seed 7 -dur 4 -nodes 2 -users 4 -max-vds 12"
	rows := []struct {
		name, args string
		code       int
		stderr     string // text a rejected row's stderr must carry
	}{
		{name: "gateway-plain", args: study},
		{name: "gateway-scenario", args: study + " -scenario bufferbloat"},
		{name: "gateway-control", args: "-selftest -seed 7 -dur 8 -nodes 2 -users 4 -max-vds 12 -control reactive"},
		{name: "reject-no-mode", args: "-seed 7", code: 2, stderr: "pass -listen to serve, -addr to talk to a gateway, or -selftest"},
	}
	// os/signal's delivery goroutine starts on the first Notify and never
	// stops; start it here so no run is charged for it.
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var outs [2]string
			for pass := range outs {
				base := runtime.NumGoroutine()
				var stdout, stderr bytes.Buffer
				if code := run(strings.Fields(row.args), &stdout, &stderr); code != row.code {
					t.Fatalf("ebsgate %s: exit %d, want %d; stderr:\n%s", row.args, code, row.code, stderr.String())
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
				outs[pass] = stdout.String()
			}
			if outs[1] != outs[0] {
				t.Fatalf("second run printed different stdout:\n%s\nfirst:\n%s", outs[1], outs[0])
			}
			if row.code == 0 {
				checkSmokeOut(t, row.name, outs[0])
			}
		})
	}
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
		t.Errorf("stdout differs from %s (go test ./cmd/ebsgate -run TestSmokes -update rewrites it):\ngot:\n%swant:\n%s", path, got, want)
	}
}
