// Command ebsgate is the always-on serving plane: a multi-tenant gateway
// that accepts skewness-study submissions over the netblock protocol, queues
// them FIFO per tenant behind token-bucket caps, dequeues with weighted-fair
// queueing, and executes each study in-process or on a replicated in-process
// fabric. The same binary is the client: point -addr at a running gateway to
// submit, poll, stream snapshots, cancel, or read tenant statistics.
//
// Serve:     ebsgate -listen :9100 -max-concurrent 4 -rate 1 -burst 2
// Submit:    ebsgate -addr :9100 -submit -tenant alice -seed 7 -dur 8 -wait
// Stream:    ebsgate -addr :9100 -snapshot 3
// Self-test: ebsgate -selftest   (serve over loopback TCP, run one study,
//
//	stream snapshots, verify the fingerprint against a direct run)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
	"ebslab/internal/netblock"
	"ebslab/internal/sketch"
)

func main() {
	var (
		listen   = flag.String("listen", "", "serve the gateway on this TCP address")
		maxConc  = flag.Int("max-concurrent", 2, "serve: studies running at once")
		rate     = flag.Float64("rate", 0, "serve: per-tenant submission grants per second (0 = uncapped)")
		burst    = flag.Float64("burst", 0, "serve: per-tenant token-bucket burst (0 = 1 when -rate is set)")
		maxQueue = flag.Int("max-queued", 16, "serve: per-tenant admission bound")
		freplica = flag.Int("fabric-replicas", 0, "serve: run studies on an in-process fabric with this many control-plane replicas (0 = run in-process)")
		fworkers = flag.Int("fabric-workers", 2, "serve: fabric workers per study")

		addr     = flag.String("addr", "", "client: gateway address to talk to")
		submit   = flag.Bool("submit", false, "client: submit a study (see -tenant and the spec flags)")
		tenantF  = flag.String("tenant", "cli", "client: tenant name to submit as")
		wait     = flag.Bool("wait", false, "client: after -submit, poll until the study settles")
		statusID = flag.Uint64("status", 0, "client: poll this study ID")
		snapID   = flag.Uint64("snapshot", 0, "client: stream one sketch snapshot of this study ID")
		cancelID = flag.Uint64("cancel", 0, "client: cancel this study ID")
		statsT   = flag.String("stats", "", "client: read this tenant's serving statistics")

		selftest = flag.Bool("selftest", false, "serve over loopback TCP, run one study end to end, verify the fingerprint against a direct run")
	)
	spec := gateway.StudySpec{Seed: 1, DurationSec: 8, Nodes: 4, Users: 16}
	spec.BindFlags(flag.CommandLine)
	flag.Parse()

	cfg := gateway.Config{
		MaxConcurrent:      *maxConc,
		SubmitRate:         *rate,
		SubmitBurst:        *burst,
		MaxQueuedPerTenant: *maxQueue,
	}
	if *freplica > 0 {
		cfg.Fabric = &gateway.FabricConfig{Replicas: *freplica, Workers: *fworkers}
	}

	switch {
	case *selftest:
		if err := runSelftest(cfg, spec); err != nil {
			fmt.Fprintln(os.Stderr, "ebsgate: selftest:", err)
			os.Exit(1)
		}
	case *listen != "":
		if err := serve(*listen, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "ebsgate:", err)
			os.Exit(1)
		}
	case *addr != "":
		if err := runClient(*addr, *tenantF, spec, *submit, *wait, *statusID, *snapID, *cancelID, *statsT); err != nil {
			fmt.Fprintln(os.Stderr, "ebsgate:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "ebsgate: pass -listen to serve, -addr to talk to a gateway, or -selftest")
		flag.Usage()
		os.Exit(2)
	}
}

// serve runs the gateway until SIGINT/SIGTERM, then drains.
func serve(listenAddr string, cfg gateway.Config) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	gw := gateway.New(cfg)
	srv := netblock.NewHandlerServer(gw)
	go srv.Serve(ln) //nolint:errcheck — ends with Close
	fmt.Fprintf(os.Stderr, "ebsgate: serving on %s (%s)\n", ln.Addr(), execDesc(cfg))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Fprintln(os.Stderr, "ebsgate: shutting down")
	srv.Close()
	ln.Close()
	gw.Close()
	return nil
}

func execDesc(cfg gateway.Config) string {
	if cfg.Fabric == nil {
		return "in-process execution"
	}
	return fmt.Sprintf("fabric execution, %d replica(s) x %d worker(s)", cfg.Fabric.Replicas, cfg.Fabric.Workers)
}

// runClient performs exactly one client operation against a live gateway.
func runClient(addr, tenant string, spec gateway.StudySpec, submit, wait bool, statusID, snapID, cancelID uint64, statsTenant string) error {
	cl, err := gateway.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	switch {
	case submit:
		reply, err := cl.Submit(tenant, spec)
		if err != nil {
			return err
		}
		fmt.Printf("study %d %s%s\n", reply.StudyID, reply.State, map[bool]string{true: " (deduped)"}[reply.Deduped])
		if !wait || reply.Deduped {
			return nil
		}
		st, err := pollStudy(cl, reply.StudyID, nil)
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	case statusID != 0:
		st, err := cl.Status(statusID)
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	case snapID != 0:
		rep, err := cl.Snapshot(snapID)
		if err != nil {
			return err
		}
		fmt.Printf("study %d %s seq=%d vds=%d/%d sketch=%dB fp=%s\n",
			rep.StudyID, gateway.StateName(rep.State), rep.Seq, rep.VDsDone, rep.VDsTotal, len(rep.Sketch), rep.SketchFP)
		return nil
	case cancelID != 0:
		rep, err := cl.Cancel(cancelID)
		if err != nil {
			return err
		}
		fmt.Printf("study %d %s\n", cancelID, rep.State)
		return nil
	case statsTenant != "":
		st, err := cl.TenantStats(statsTenant)
		if err != nil {
			return err
		}
		fmt.Printf("tenant %s: submitted %d rejected %d deduped %d granted %d completed %d failed %d canceled %d/%d queued %d running %d tokens %d\n",
			st.Tenant, st.Submitted, st.Rejected, st.Deduped, st.Granted, st.Completed,
			st.Failed, st.CanceledQueued, st.CanceledRunning, st.Queued, st.Running, st.Tokens)
		return nil
	}
	return fmt.Errorf("pass one of -submit, -status, -snapshot, -cancel, -stats with -addr")
}

// pollStudy polls until the study settles, invoking onPoll (when set) each
// round so callers can stream snapshots while they wait.
func pollStudy(cl *gateway.Client, id uint64, onPoll func()) (gateway.StatusReply, error) {
	for {
		st, err := cl.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, nil
		}
		if onPoll != nil {
			onPoll()
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func printStatus(st gateway.StatusReply) {
	fmt.Printf("study %d tenant=%s %s vds=%d/%d", st.StudyID, st.Tenant, st.State, st.VDsDone, st.VDsTotal)
	if st.Kills > 0 {
		fmt.Printf(" leader-kills=%d", st.Kills)
	}
	if st.DatasetFP != "" {
		fmt.Printf("\n  dataset  %s\n  sketch   %s", st.DatasetFP, st.SketchFP)
	}
	if st.ControlLogFP != "" {
		fmt.Printf("\n  control  %s (%d decisions)", st.ControlLogFP, st.ControlDecisions)
	}
	if st.Error != "" {
		fmt.Printf(" error=%s", st.Error)
	}
	fmt.Println()
}

// runSelftest is the gateway-smoke gate: serve a real gateway on loopback
// TCP, push one study through the full wire path, stream sketch snapshots
// while it runs, and fail unless the served fingerprints are byte-identical
// to a direct single-process run of the same spec.
func runSelftest(cfg gateway.Config, spec gateway.StudySpec) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw := gateway.New(cfg)
	defer gw.Close()
	srv := netblock.NewHandlerServer(gw)
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck — ends with Close
	fmt.Fprintf(os.Stderr, "ebsgate: selftest gateway on %s (%s)\n", ln.Addr(), execDesc(cfg))

	cl, err := gateway.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	reply, err := cl.Submit("smoke", spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ebsgate: study %d submitted (%s)\n", reply.StudyID, reply.State)

	snaps := 0
	var lastSnap gateway.SnapshotReply
	st, err := pollStudy(cl, reply.StudyID, func() {
		rep, err := cl.Snapshot(reply.StudyID)
		if err == nil && len(rep.Sketch) > 0 {
			snaps++
			lastSnap = rep
			fmt.Fprintf(os.Stderr, "ebsgate: snapshot seq=%d vds=%d/%d (%d bytes)\n",
				rep.Seq, rep.VDsDone, rep.VDsTotal, len(rep.Sketch))
		}
	})
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("study settled as %s: %s", st.State, st.Error)
	}
	if st.Kills != spec.LeaderKills {
		return fmt.Errorf("study ran with %d leader kill(s), the spec asked for %d", st.Kills, spec.LeaderKills)
	}
	// The final frame always carries state, so a fast study still streams.
	if final, err := cl.Snapshot(reply.StudyID); err == nil && len(final.Sketch) > 0 {
		snaps++
		lastSnap = final
	}
	if snaps == 0 {
		return fmt.Errorf("no sketch snapshot streamed")
	}
	set, err := sketch.DecodeSet(lastSnap.Sketch)
	if err != nil {
		return fmt.Errorf("streamed sketch does not decode: %w", err)
	}
	if fp := set.Fingerprint(); fp != lastSnap.SketchFP {
		return fmt.Errorf("streamed sketch fingerprint %s, frame claims %s", fp, lastSnap.SketchFP)
	}
	if lastSnap.SketchFP != st.SketchFP {
		return fmt.Errorf("final streamed fingerprint %s diverges from final sketch %s", lastSnap.SketchFP, st.SketchFP)
	}

	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		return err
	}
	if st.DatasetFP != oracle.DatasetFP {
		return fmt.Errorf("served dataset fingerprint %s, direct run %s", st.DatasetFP, oracle.DatasetFP)
	}
	if st.SketchFP != oracle.SketchFP {
		return fmt.Errorf("served sketch fingerprint %s, direct run %s", st.SketchFP, oracle.SketchFP)
	}
	if st.ControlLogFP != oracle.ControlLogFP {
		return fmt.Errorf("served control log fingerprint %q, direct run %q", st.ControlLogFP, oracle.ControlLogFP)
	}
	fmt.Printf("ebsgate selftest: study %d over TCP, %d snapshot(s) streamed, fingerprints match direct run\n", reply.StudyID, snaps)
	fmt.Printf("  dataset %s\n  sketch  %s\n", st.DatasetFP, st.SketchFP)
	if st.ControlLogFP != "" {
		fmt.Printf("  control %s (%d decisions)\n", st.ControlLogFP, st.ControlDecisions)
	}
	return nil
}
