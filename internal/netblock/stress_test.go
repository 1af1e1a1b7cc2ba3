// Stress tests: N concurrent clients against one Server, with and without
// wire faults (injected by a netblocktest proxy on the server's listener),
// auditing per-client byte accounting against the handler's own counters.
// These run under -race in `make ci`.
package netblock_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/netblock"
	"ebslab/internal/netblock/netblocktest"
)

const (
	stressIters = 25
	stressBlock = 4096
)

// stressPattern is the deterministic block client w sends at iteration i:
// unique per (client, iteration), so an echo that belongs to any other call
// — another client's, or this client's abandoned call at an earlier
// iteration — cannot pass for this one's.
func stressPattern(w, i int) []byte {
	buf := make([]byte, stressBlock)
	for j := range buf {
		buf[j] = byte(w*131 + i*31 + j)
	}
	return buf
}

// TestStressClientsAgainstFaultyServer hammers one server from several
// clients while a fault proxy on its listener resets, drops, delays,
// truncates, and garbles exchanges. Each call makes one attempt, so the accounting laws are
// at-most-once per call: every acknowledged call returned its own payload
// bit-exactly, the server is healthy once the faults stop, and the handler's
// counters lie between what the clients got acknowledged and what they
// issued.
func TestStressClientsAgainstFaultyServer(t *testing.T) {
	const clients = 4
	draw := netblocktest.Draw(99, netblocktest.Mix{
		netblocktest.Reset: 0.05, netblocktest.Drop: 0.04, netblocktest.Delay: 0.05,
		netblocktest.Truncate: 0.03, netblocktest.Garbage: 0.03, netblocktest.Error: 0.05,
	})
	var healed atomic.Bool
	proxy := netblocktest.New(func(req *netblock.Request) netblocktest.Fault {
		if healed.Load() {
			return netblocktest.None
		}
		return draw(req)
	})
	h := &netblock.EchoHandler{}
	l := netblock.ListenTCP(t)
	netblock.ServeOn(t, h, proxy.Listen(l))
	addr := l.Addr().String()

	ackedBytes := make([]int64, clients)
	ackedCalls := make([]int64, clients)
	issuedCalls := make([]int64, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netblock.DialConfig("tcp", addr, netblock.Config{Timeout: 250 * time.Millisecond})
			if err != nil {
				t.Errorf("client %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < stressIters; i++ {
				pat := stressPattern(w, i)
				// Two calls per iteration, as many as may fail under fault
				// pressure; a success must carry this call's own bytes.
				for k := 0; k < 2; k++ {
					issuedCalls[w]++
					got, err := c.Call(netblock.OpHeartbeat, pat)
					if err != nil {
						continue
					}
					if !bytes.Equal(got, pat) {
						t.Errorf("client %d iter %d: acknowledged call returned another call's bytes", w, i)
					}
					ackedCalls[w]++
					ackedBytes[w] += int64(len(pat))
				}
			}
		}()
	}
	wg.Wait()

	if proxy.Total() == 0 {
		t.Fatal("fault proxy never fired; the stress exercised nothing")
	}

	var totalAcked, totalCalls, totalIssued int64
	for w := 0; w < clients; w++ {
		totalAcked += ackedBytes[w]
		totalCalls += ackedCalls[w]
		totalIssued += issuedCalls[w]
	}
	if totalCalls == 0 {
		t.Fatal("no call was ever acknowledged")
	}
	// An acknowledged call executed, so the handler's counters are no lower
	// than the acks (a dropped response executes without one). Each call is
	// one attempt, so no call executed twice: the handler executed at most
	// the calls the clients issued.
	if h.Bytes() < totalAcked || h.Calls() < totalCalls {
		t.Fatalf("handler executed %d bytes / %d calls < acknowledged %d / %d: an acked call vanished",
			h.Bytes(), h.Calls(), totalAcked, totalCalls)
	}
	if h.Calls() > totalIssued || h.Bytes() > totalIssued*stressBlock {
		t.Fatalf("handler executed %d calls / %d bytes > issued %d / %d: a call executed twice",
			h.Calls(), h.Bytes(), totalIssued, totalIssued*stressBlock)
	}

	// Faults off: the server must still serve every client's pattern intact.
	healed.Store(true)
	verify, err := netblock.DialConfig("tcp", addr, netblock.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer verify.Close()
	pat := stressPattern(clients, 0)
	got, err := verify.Call(netblock.OpHeartbeat, pat)
	if err != nil || !bytes.Equal(got, pat) {
		t.Fatalf("server unhealthy after the faults stopped: %v", err)
	}
}

// TestStressAccountingExactWithoutFaults is the control: with no faults,
// per-client accounting and the server's counters must agree exactly.
func TestStressAccountingExactWithoutFaults(t *testing.T) {
	const clients = 4
	srv, h, addr := netblock.ServeEcho(t)

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netblock.DialConfig("tcp", addr, netblock.Config{Timeout: 10 * time.Second})
			if err != nil {
				t.Errorf("client %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < stressIters; i++ {
				pat := stressPattern(w, i)
				for k := 0; k < 2; k++ {
					got, err := c.Call(netblock.OpHeartbeat, pat)
					if err != nil {
						t.Errorf("client %d iter %d: call: %v", w, i, err)
						return
					}
					if !bytes.Equal(got, pat) {
						t.Errorf("client %d iter %d: echo mismatch", w, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	wantCalls := int64(clients * 2 * stressIters)
	if got, want := h.Bytes(), wantCalls*stressBlock; got != want {
		t.Fatalf("handler executed %d payload bytes, want exactly %d", got, want)
	}
	if srv.Requests() != wantCalls || h.Calls() != wantCalls {
		t.Fatalf("server executed %d requests (handler %d), want exactly %d", srv.Requests(), h.Calls(), wantCalls)
	}
}
