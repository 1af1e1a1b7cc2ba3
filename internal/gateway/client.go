package gateway

import (
	"net"
	"time"

	"ebslab/internal/netblock"
)

// Client is a typed gateway client over one netblock connection. Methods are
// safe for concurrent use: the netblock client carries one exchange at a
// time, so concurrent calls take turns. The gateway trusts its network —
// tenancy is declared, not authenticated — exactly like the fabric trusts
// its workers.
type Client struct {
	c *netblock.Client
}

// Dial connects to a gateway over TCP.
func Dial(addr string) (*Client, error) {
	c, err := netblock.DialConfig("tcp", addr, netblock.Config{Timeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// NewClient wraps an established connection (harnesses dial a
// fabric.Loopback and hand the conn here).
func NewClient(conn net.Conn) *Client {
	return &Client{c: netblock.NewClient(conn)}
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// call performs one typed RPC: payload under op, the JSON reply decoded
// into a T. Any error returns T's zero value.
func call[T any](cl *Client, op netblock.OpCode, payload []byte) (T, error) {
	var r T
	raw, err := cl.c.Call(op, payload)
	if err == nil {
		err = fromJSON(raw, &r)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return r, nil
}

// Submit submits one study for tenant.
func (cl *Client) Submit(tenant string, spec StudySpec) (SubmitReply, error) {
	return call[SubmitReply](cl, netblock.OpSubmitStudy, EncodeSubmit(SubmitRequest{Tenant: tenant, Spec: spec}))
}

// Status polls one study.
func (cl *Client) Status(id uint64) (StatusReply, error) {
	return call[StatusReply](cl, netblock.OpStudyStatus, EncodeStudyID(id))
}

// Snapshot streams one incremental sketch snapshot of a study.
func (cl *Client) Snapshot(id uint64) (SnapshotReply, error) {
	payload, err := cl.c.Call(netblock.OpStreamSnapshot, EncodeStudyID(id))
	if err != nil {
		return SnapshotReply{}, err
	}
	return DecodeSnapshotReply(payload)
}

// Cancel cancels one study.
func (cl *Client) Cancel(id uint64) (CancelReply, error) {
	return call[CancelReply](cl, netblock.OpCancelStudy, EncodeStudyID(id))
}

// TenantStats fetches one tenant's serving statistics.
func (cl *Client) TenantStats(tenant string) (TenantStats, error) {
	return call[TenantStats](cl, netblock.OpTenantStats, mustJSON(StatsRequest{Tenant: tenant}))
}
