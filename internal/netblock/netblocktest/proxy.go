// Package netblocktest injects wire faults into netblock exchanges from the
// transport a test hands the server or client: a Proxy relays each
// connection frame by frame and applies the Fault its picker chooses to each
// exchange. Listen wraps the listener a netblock.Server serves; Dial wraps a
// dialer, such as a fabric worker's Dials. It does not import package testing.
package netblocktest

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"time"

	"ebslab/internal/netblock"
	"ebslab/internal/xrand"
)

// Fault is what the proxy does to one exchange.
type Fault uint8

// The faults.
const (
	// None relays the exchange unchanged.
	None Fault = iota
	// Reset closes the connection before the request is forwarded.
	Reset
	// Error answers StatusError without forwarding the request.
	Error
	// Drop forwards the request and swallows its reply: the server
	// executes it, the client's deadline is what saves the caller.
	Drop
	// Truncate forwards the request, relays half of the reply frame and
	// closes the connection.
	Truncate
	// Garbage forwards the request, answers garbage bytes instead of the
	// reply and closes the connection.
	Garbage
	// Delay stalls the exchange by delayFor, then relays it unchanged.
	Delay

	nFaults
)

// delayFor is how long a Delay fault stalls its exchange.
const delayFor = 200 * time.Microsecond

var faultNames = [nFaults]string{"none", "reset", "error", "drop", "truncate", "garbage", "delay"}

func (f Fault) String() string { return faultNames[f] }

// Mix holds the probability that an exchange suffers each fault, indexed by
// Fault (Mix{Reset: 0.05, Drop: 0.03}). The rates sum to at most 1; the
// rest of the exchanges pass clean.
type Mix [nFaults]float64

// Draw returns a seeded fault picker. Its n-th call maps SplitMix64 over
// (seed, n) to [0, 1) and picks the fault whose band of the mix, laid out
// in Fault order, holds the value, so the same seed replays the same sequence of faults; under
// concurrent connections the sequence is dealt to exchanges in arrival
// order, and the mix of faults still tracks the rates.
func Draw(seed int64, m Mix) func(*netblock.Request) Fault {
	var n atomic.Uint64
	return func(*netblock.Request) Fault {
		u := float64(xrand.Mix64(uint64(seed)^n.Add(1)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
		for f, p := range m {
			if u < p {
				return Fault(f)
			}
			u -= p
		}
		return None
	}
}

// Proxy relays netblock connections and applies the fault its picker
// chooses to each exchange. It is safe for concurrent use by any number of
// connections.
type Proxy struct {
	pick     func(*netblock.Request) Fault
	injected [nFaults]atomic.Int64
}

// New returns a proxy that asks pick for the fault of every request it
// relays (Draw's seeded picker, or a test's own that targets one exchange).
func New(pick func(*netblock.Request) Fault) *Proxy {
	return &Proxy{pick: pick}
}

// Injected returns how many exchanges suffered fault f.
func (p *Proxy) Injected(f Fault) int64 { return p.injected[f].Load() }

// Total returns how many exchanges suffered any fault.
func (p *Proxy) Total() int64 {
	var t int64
	for f := None + 1; f < nFaults; f++ {
		t += p.Injected(f)
	}
	return t
}

// Listen wraps l: the server that serves the returned listener reads each
// accepted connection's requests through the proxy.
func (p *Proxy) Listen(l net.Listener) net.Listener {
	return listener{Listener: l, p: p}
}

// Dial wraps dial: the caller's connection reaches the dialed server
// through the proxy.
func (p *Proxy) Dial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		up, err := dial()
		if err != nil {
			return nil, err
		}
		caller, end := net.Pipe()
		go p.relay(end, up)
		return caller, nil
	}
}

type listener struct {
	net.Listener
	p *Proxy
}

func (l listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	srv, end := net.Pipe()
	go l.p.relay(c, end)
	return srv, nil
}

// relay carries one connection's exchanges from client to server and back,
// one request frame and its reply at a time, and closes both sides when
// either fails a read or a write or a fault ends the connection: a client
// whose server closed learns it on its next call, as it would over TCP.
// Frames pass byte for byte; the request is decoded only to pick its fault
// and to answer an Error fault with its ID.
func (p *Proxy) relay(client, server net.Conn) {
	defer client.Close()
	defer server.Close()
	for {
		var in, out bytes.Buffer
		req, err := netblock.ReadRequest(io.TeeReader(client, &in))
		if err != nil {
			return
		}
		f := p.pick(req)
		p.injected[f].Add(1)
		switch f {
		case Reset:
			return
		case Error:
			if netblock.WriteResponse(client, &netblock.Response{
				ID: req.ID, Status: netblock.StatusError, Payload: []byte("injected fault"),
			}) != nil {
				return
			}
			continue
		case Delay:
			time.Sleep(delayFor)
		}
		if _, err := server.Write(in.Bytes()); err != nil {
			return
		}
		if _, err := netblock.ReadResponse(io.TeeReader(server, &out)); err != nil {
			return
		}
		switch f {
		case Drop:
			continue
		case Truncate:
			client.Write(out.Bytes()[:out.Len()/2])
			return
		case Garbage:
			// A response header's worth and then some, claiming an
			// absurd ID and length.
			client.Write(bytes.Repeat([]byte{0xA5}, 21))
			return
		}
		if _, err := client.Write(out.Bytes()); err != nil {
			return
		}
	}
}
