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
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ebslab/internal/fabric"
)

func main() {
	join := flag.String("join", "", "coordinator address(es) to join, comma-separated and indexed by replica ID for a replicated control plane (e.g. the ebssim -workers-addr / -peers values)")
	flag.Parse()
	if *join == "" {
		fmt.Fprintln(os.Stderr, "ebsd: -join is required")
		flag.Usage()
		os.Exit(2)
	}
	var dials []func() (net.Conn, error)
	for _, addr := range strings.Split(*join, ",") {
		addr := strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		dials = append(dials, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	}
	if len(dials) == 0 {
		fmt.Fprintln(os.Stderr, "ebsd: -join lists no usable address")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	drain := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "ebsd: drain requested; finishing current shard")
		close(drain)
		<-sigs
		fmt.Fprintln(os.Stderr, "ebsd: killed")
		cancel()
	}()

	err := fabric.RunWorker(ctx, fabric.WorkerConfig{Dials: dials, Drain: drain})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebsd:", err)
		os.Exit(1)
	}
}
