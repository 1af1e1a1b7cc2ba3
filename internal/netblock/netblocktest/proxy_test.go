package netblocktest

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ebslab/internal/netblock"
)

// TestDrawDeterministicSequence: two pickers from the same seed draw the
// same sequence, every fault is drawn, and the clean share stays near what
// the mix leaves over.
func TestDrawDeterministicSequence(t *testing.T) {
	m := Mix{Reset: 0.1, Error: 0.1, Drop: 0.1, Truncate: 0.1, Garbage: 0.1, Delay: 0.1}
	const draws = 4000
	a, b := drawN(7, m, draws), drawN(7, m, draws)
	var seen [nFaults]int
	for i, f := range a {
		if f != b[i] {
			t.Fatalf("draw %d: pickers from the same seed diverge: %v vs %v", i, f, b[i])
		}
		seen[f]++
	}
	for f := None + 1; f < nFaults; f++ {
		if seen[f] == 0 {
			t.Fatalf("fault %v never drawn in %d draws at 10%% rate", f, draws)
		}
	}
	if frac := float64(seen[None]) / draws; frac < 0.3 || frac > 0.5 {
		t.Fatalf("clean exchange fraction %.3f far from configured 0.4", frac)
	}
	if slices.Equal(drawN(8, m, 64), a[:64]) {
		t.Fatal("seed does not reach the draw")
	}
}

// drawN returns the first n faults a picker from (seed, m) draws.
func drawN(seed int64, m Mix, n int) []Fault {
	pick := Draw(seed, m)
	req := &netblock.Request{Op: netblock.OpHeartbeat}
	out := make([]Fault, n)
	for i := range out {
		out[i] = pick(req)
	}
	return out
}

// echo answers every request with its own payload and counts the calls.
type echo struct{ calls chan struct{} }

func (h echo) Handle(req *netblock.Request) *netblock.Response {
	h.calls <- struct{}{}
	return &netblock.Response{ID: req.ID, Status: netblock.StatusOK, Payload: req.Payload}
}

// TestProxyAppliesEachFault sends one call per fault through each form of
// the proxy and checks what the caller and the server saw: only None and
// Delay answer, Error answers without reaching the server, Reset never
// reaches it, and Drop, Truncate and Garbage reach it but fail the call.
func TestProxyAppliesEachFault(t *testing.T) {
	cases := []struct {
		f        Fault
		executed bool
		check    func(payload []byte, err error) bool
	}{
		{None, true, func(p []byte, err error) bool { return err == nil && bytes.Equal(p, []byte("ping")) }},
		{Delay, true, func(p []byte, err error) bool { return err == nil && bytes.Equal(p, []byte("ping")) }},
		{Reset, false, func(_ []byte, err error) bool { return err != nil }},
		{Error, false, func(_ []byte, err error) bool { return err != nil && strings.Contains(err.Error(), "injected fault") }},
		{Drop, true, func(_ []byte, err error) bool { return errors.Is(err, netblock.ErrTimeout) }},
		{Truncate, true, func(_ []byte, err error) bool { return err != nil }},
		{Garbage, true, func(_ []byte, err error) bool { return err != nil }},
	}
	for _, form := range []string{"listen", "dial"} {
		for _, tc := range cases {
			t.Run(form+"/"+tc.f.String(), func(t *testing.T) {
				p := New(func(*netblock.Request) Fault { return tc.f })
				h := echo{calls: make(chan struct{}, 1)}
				srv := netblock.NewHandlerServer(h)
				cli, end := net.Pipe()
				l := &oneListener{conn: end, done: make(chan struct{})}
				if form == "listen" {
					go srv.Serve(p.Listen(l))
				} else {
					go srv.Serve(l)
					var err error
					if cli, err = p.Dial(func() (net.Conn, error) { return cli, nil })(); err != nil {
						t.Fatal(err)
					}
				}
				defer srv.Close()
				c := netblock.NewClientConfig(cli, netblock.Config{Timeout: 100 * time.Millisecond})
				defer c.Close()
				got, err := c.Call(netblock.OpHeartbeat, []byte("ping"))
				if !tc.check(got, err) {
					t.Fatalf("call under %v returned %q, %v", tc.f, got, err)
				}
				executed := len(h.calls) == 1
				if executed != tc.executed {
					t.Fatalf("server executed the request: %v, want %v", executed, tc.executed)
				}
				faults := int64(1)
				if tc.f == None {
					faults = 0
				}
				if p.Injected(tc.f) != 1 || p.Total() != faults {
					t.Fatalf("proxy counted %d of %v, %d faults in all", p.Injected(tc.f), tc.f, p.Total())
				}
			})
		}
	}
}

// oneListener accepts conn once, then blocks until closed.
type oneListener struct {
	conn net.Conn
	done chan struct{}
}

func (l *oneListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.done
	return nil, net.ErrClosed
}

func (l *oneListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *oneListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }
