// Command ebsd is the distributed-simulation worker daemon: it joins a
// coordinator's fleet (cmd/ebssim -workers-addr), executes the shards it is
// assigned with the in-process ebs engine, and uploads each shard's partial
// results. SIGINT/SIGTERM request an orderly drain — the current shard
// finishes and uploads before the daemon deregisters; a second signal kills
// it immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ebslab/internal/fabric"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ebsd on explicit arguments and streams (it prints nothing on stdout);
// it returns the exit code and leaves no goroutine or signal registration behind.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	join := fs.String("join", "", "address of the coordinator to join (the ebssim -workers-addr value)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	addr := strings.TrimSpace(*join)
	if addr == "" || strings.Contains(addr, ",") {
		fmt.Fprintln(stderr, "ebsd: -join needs one coordinator address, the ebssim -workers-addr value")
		fs.Usage()
		return 2
	}

	// The first signal drains, the second kills; closing sigs once Stop
	// guarantees no more sends ends the goroutine with run.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigs); close(sigs) }()
	drain := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		if _, ok := <-sigs; ok {
			fmt.Fprintln(stderr, "ebsd: drain requested; finishing current shard")
			close(drain)
		}
		if _, ok := <-sigs; ok {
			fmt.Fprintln(stderr, "ebsd: killed")
			cancel()
		}
	}()

	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	if err := fabric.RunWorker(ctx, fabric.WorkerConfig{Dial: dial, Drain: drain}); err != nil {
		fmt.Fprintln(stderr, "ebsd:", err)
		return 1
	}
	return 0
}
