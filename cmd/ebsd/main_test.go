package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"testing"
	"time"

	"ebslab/internal/fabric"
	"ebslab/internal/gateway"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
)

// TestSmokes holds the command lines ebsd must refuse to exit 2, naming the
// cause, before it dials anything.
func TestSmokes(t *testing.T) {
	for _, row := range []struct{ name, args string }{
		{"reject-no-join", ""},
		{"reject-empty-join", "-join="},
		{"reject-join-list", "-join 127.0.0.1:7001,127.0.0.1:7002"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(row.args), &stdout, &stderr); code != 2 {
				t.Fatalf("ebsd %s: exit %d, want 2; stderr:\n%s", row.args, code, stderr.String())
			}
			if want := "-join needs one coordinator address"; stdout.Len() > 0 || !strings.Contains(stderr.String(), want) {
				t.Fatalf("rejected with stdout %q and stderr %q, want no stdout and a stderr naming %q", stdout.String(), stderr.String(), want)
			}
		})
	}
}

// TestJoin is the worker half of ebssim's dist-tcp smoke row: two ebsd runs
// join a fabric coordinator served on a loopback socket, execute its shards,
// and exit 0 once it is done; the merged dataset must fingerprint equal to
// the single-process run of the same study, and no goroutine may outlive the
// workers and the coordinator.
func TestJoin(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := gateway.StudySpec{Seed: 7, DurationSec: 15, Nodes: 4, Users: 16, MaxVDs: 24}.RunSpec()
	want, _, err := spec.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// os/signal's delivery goroutine starts on the first Notify and never
	// stops; start it here so the workers are not charged for it.
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	base := runtime.NumGoroutine()

	co, err := fabric.NewCoordinator(fabric.Config{Fleet: spec.Fleet, Opts: spec.Opts, Scenario: spec.Scenario})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := netblock.NewHandlerServer(co)
	go srv.Serve(l) //nolint:errcheck — ends with Close
	var stderrs [2]bytes.Buffer
	codes := make(chan int, len(stderrs))
	for i := range stderrs {
		go func() { codes <- run([]string{"-join", l.Addr().String()}, io.Discard, &stderrs[i]) }()
	}
	ds, err := co.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for range stderrs {
		if code := <-codes; code != 0 {
			t.Errorf("ebsd exited %d; stderr:\n%s\n%s", code, stderrs[0].String(), stderrs[1].String())
		}
	}
	if got, want := invariant.Fingerprint(ds), invariant.Fingerprint(want); got != want {
		t.Errorf("dataset fingerprint %s over two ebsd workers, single process %s", got, want)
	}
	srv.Close()
	co.Stop()
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after the workers and the coordinator stopped, %d before them:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
