// Command ebsgate is the always-on serving plane: a multi-tenant gateway
// that accepts skewness-study submissions over the netblock protocol, queues
// them FIFO per tenant behind token-bucket caps, dequeues with weighted-fair
// queueing, and executes each study in-process, answering exactly what a
// single-process run of the same spec answers. The same binary is the client:
// point -addr at a running gateway to submit, poll, stream snapshots, cancel,
// or read tenant statistics.
//
// Serve:     ebsgate -listen :9100 -max-concurrent 4 -rate 1 -burst 2
// Submit:    ebsgate -addr :9100 -submit -tenant alice -seed 7 -dur 8 -wait
// Stream:    ebsgate -addr :9100 -snapshot 3
// Self-test: ebsgate -selftest   (one study over loopback TCP vs a direct run)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ebsgate on explicit arguments and streams; it returns the exit code
// and leaves no goroutine or signal registration behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebsgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "", "serve the gateway on this TCP address")
		maxConc  = fs.Int("max-concurrent", 2, "serve: studies running at once")
		rate     = fs.Float64("rate", 0, "serve: per-tenant submission grants per second (0 = uncapped)")
		burst    = fs.Float64("burst", 0, "serve: per-tenant token-bucket burst (0 = 1 when -rate is set)")
		maxQueue = fs.Int("max-queued", 16, "serve: per-tenant admission bound")

		addr     = fs.String("addr", "", "client: gateway address to talk to")
		submit   = fs.Bool("submit", false, "client: submit a study (see -tenant and the spec flags)")
		tenantF  = fs.String("tenant", "cli", "client: tenant name to submit as")
		wait     = fs.Bool("wait", false, "client: after -submit, poll until the study settles")
		statusID = fs.Uint64("status", 0, "client: poll this study ID")
		snapID   = fs.Uint64("snapshot", 0, "client: stream one sketch snapshot of this study ID")
		cancelID = fs.Uint64("cancel", 0, "client: cancel this study ID")
		statsT   = fs.String("stats", "", "client: read this tenant's serving statistics")

		selftest = fs.Bool("selftest", false, "serve over loopback TCP, run one study end to end, verify the fingerprint against a direct run")
	)
	spec := gateway.StudySpec{Seed: 1, DurationSec: 8, Nodes: 4, Users: 16}
	spec.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := gateway.Config{
		MaxConcurrent:      *maxConc,
		SubmitRate:         *rate,
		SubmitBurst:        *burst,
		MaxQueuedPerTenant: *maxQueue,
	}

	var err error
	switch {
	case *selftest:
		err = runSelftest(stdout, stderr, cfg, spec)
	case *listen != "":
		err = serve(stderr, *listen, cfg)
	case *addr != "":
		err = runClient(stdout, *addr, *tenantF, spec, *submit, *wait, *statusID, *snapID, *cancelID, *statsT)
	default:
		fmt.Fprintln(stderr, "ebsgate: pass -listen to serve, -addr to talk to a gateway, or -selftest")
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebsgate:", err)
		return 1
	}
	return 0
}

// serve runs the gateway until SIGINT/SIGTERM, then drains it and holds it
// to its serving laws.
func serve(stderr io.Writer, listenAddr string, cfg gateway.Config) error {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	gw := gateway.New(cfg)
	srv := netblock.NewHandlerServer(gw)
	go srv.Serve(ln) //nolint:errcheck — ends with Close
	fmt.Fprintf(stderr, "ebsgate: serving on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(stderr, "ebsgate: shutting down")
	srv.Close()
	ln.Close()
	gw.Close()
	return gw.CheckLaws(true)
}

// runClient performs exactly one client operation against a live gateway.
func runClient(stdout io.Writer, addr, tenant string, spec gateway.StudySpec, submit, wait bool, statusID, snapID, cancelID uint64, statsTenant string) error {
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
		fmt.Fprintf(stdout, "study %d %s%s\n", reply.StudyID, reply.State, map[bool]string{true: " (deduped)"}[reply.Deduped])
		if !wait || reply.Deduped {
			return nil
		}
		st, err := pollStudy(cl, reply.StudyID, nil)
		if err == nil {
			printStatus(stdout, st)
		}
		return err
	case statusID != 0:
		st, err := cl.Status(statusID)
		if err == nil {
			printStatus(stdout, st)
		}
		return err
	case snapID != 0:
		rep, err := cl.Snapshot(snapID)
		if err == nil {
			fmt.Fprintf(stdout, "study %d %s seq=%d vds=%d/%d sketch=%dB fp=%s\n",
				rep.StudyID, gateway.StateName(rep.State), rep.Seq, rep.VDsDone, rep.VDsTotal, len(rep.Sketch), rep.SketchFP)
		}
		return err
	case cancelID != 0:
		rep, err := cl.Cancel(cancelID)
		if err == nil {
			fmt.Fprintf(stdout, "study %d %s\n", cancelID, rep.State)
		}
		return err
	case statsTenant != "":
		st, err := cl.TenantStats(statsTenant)
		if err == nil {
			fmt.Fprintf(stdout, "tenant %s: submitted %d rejected %d deduped %d granted %d completed %d failed %d canceled %d/%d queued %d running %d tokens %d\n",
				st.Tenant, st.Submitted, st.Rejected, st.Deduped, st.Granted, st.Completed,
				st.Failed, st.CanceledQueued, st.CanceledRunning, st.Queued, st.Running, st.Tokens)
		}
		return err
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

func printStatus(stdout io.Writer, st gateway.StatusReply) {
	fmt.Fprintf(stdout, "study %d tenant=%s %s vds=%d/%d", st.StudyID, st.Tenant, st.State, st.VDsDone, st.VDsTotal)
	if st.DatasetFP != "" {
		fmt.Fprintf(stdout, "\n  dataset  %s\n  sketch   %s", st.DatasetFP, st.SketchFP)
	}
	if st.ControlLogFP != "" {
		fmt.Fprintf(stdout, "\n  control  %s (%d decisions)", st.ControlLogFP, st.ControlDecisions)
	}
	if st.Error != "" {
		fmt.Fprintf(stdout, " error=%s", st.Error)
	}
	fmt.Fprintln(stdout)
}

// runSelftest is the gateway smoke check: serve a real gateway on loopback
// TCP, push one study through the full wire path, stream sketch snapshots
// while it runs, and fail unless the settled gateway keeps its serving laws
// and the served fingerprints are byte-identical to a direct single-process
// run of the same spec.
func runSelftest(stdout, stderr io.Writer, cfg gateway.Config, spec gateway.StudySpec) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gw := gateway.New(cfg)
	defer gw.Close()
	srv := netblock.NewHandlerServer(gw)
	defer srv.Close()
	go srv.Serve(ln) //nolint:errcheck — ends with Close
	fmt.Fprintf(stderr, "ebsgate: selftest gateway on %s\n", ln.Addr())

	cl, err := gateway.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	reply, err := cl.Submit("smoke", spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ebsgate: study %d submitted (%s)\n", reply.StudyID, reply.State)

	snaps := 0
	var lastSnap gateway.SnapshotReply
	st, err := pollStudy(cl, reply.StudyID, func() {
		rep, err := cl.Snapshot(reply.StudyID)
		if err == nil && len(rep.Sketch) > 0 {
			snaps++
			lastSnap = rep
			fmt.Fprintf(stderr, "ebsgate: snapshot seq=%d vds=%d/%d (%d bytes)\n",
				rep.Seq, rep.VDsDone, rep.VDsTotal, len(rep.Sketch))
		}
	})
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("study settled as %s: %s", st.State, st.Error)
	}
	if err := gw.CheckLaws(true); err != nil {
		return err
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
	if served := (gatewaytest.Oracle{DatasetFP: st.DatasetFP, SketchFP: st.SketchFP, ControlLogFP: st.ControlLogFP}); served != oracle {
		return fmt.Errorf("served fingerprints %+v, direct run %+v", served, oracle)
	}
	fmt.Fprintf(stderr, "ebsgate: %d snapshot(s) streamed\n", snaps)
	fmt.Fprintf(stdout, "ebsgate selftest: study %d over TCP, fingerprints match direct run\n", reply.StudyID)
	fmt.Fprintf(stdout, "  dataset %s\n  sketch  %s\n", st.DatasetFP, st.SketchFP)
	if st.ControlLogFP != "" {
		fmt.Fprintf(stdout, "  control %s (%d decisions)\n", st.ControlLogFP, st.ControlDecisions)
	}
	return nil
}
