// Package client is the user-side library of OPAQUE: it formulates path
// queries ⟨u, (s, t), fS, fT⟩, submits them to the trusted obfuscator (either
// in-process or over TCP), and returns the requested path. It can also talk
// to a directions search server directly with no privacy protection, which
// the baselines and experiments use as the reference behaviour.
package client

import (
	"fmt"
	"sync/atomic"

	"opaque/internal/obfsvc"
	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// Result is the answer to one path query.
type Result struct {
	Path  search.Path
	Found bool
}

// Client submits path queries on behalf of one user.
type Client struct {
	user      obfuscate.UserID
	fs, ft    int
	requestID atomic.Uint64

	// exactly one of the following is set
	local  *obfsvc.Service
	remote *protocol.MuxClient
}

// Option customises a Client.
type Option func(*Client)

// WithProtection sets the user's desired obfuscation power (fS, fT).
func WithProtection(fs, ft int) Option {
	return func(c *Client) {
		c.fs, c.ft = fs, ft
	}
}

// NewLocal returns a client wired directly to an in-process obfuscator
// service.
func NewLocal(user string, svc *obfsvc.Service, opts ...Option) (*Client, error) {
	if user == "" {
		return nil, fmt.Errorf("client: empty user id")
	}
	if svc == nil {
		return nil, fmt.Errorf("client: nil obfuscator service")
	}
	c := &Client{user: obfuscate.UserID(user), fs: 2, ft: 2, local: svc}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// MustNewLocal is NewLocal but panics on error.
func MustNewLocal(user string, svc *obfsvc.Service, opts ...Option) *Client {
	c, err := NewLocal(user, svc, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Dial returns a client connected to a networked obfuscator at addr over the
// multiplexed framed transport.
func Dial(user, addr string, opts ...Option) (*Client, error) {
	if user == "" {
		return nil, fmt.Errorf("client: empty user id")
	}
	c := &Client{user: obfuscate.UserID(user), fs: 2, ft: 2}
	for _, o := range opts {
		o(c)
	}
	conn, err := protocol.DialMux(addr, protocol.Hello{Node: user, Role: "client"})
	if err != nil {
		return nil, err
	}
	c.remote = conn
	return c, nil
}

// Close releases the network connection of a dialled client; it is a no-op
// for local clients.
func (c *Client) Close() error {
	if c.remote != nil {
		return c.remote.Close()
	}
	return nil
}

// Protection returns the client's configured (fS, fT).
func (c *Client) Protection() (fs, ft int) { return c.fs, c.ft }

// Query requests the shortest path from source to dest with the client's
// configured protection settings.
func (c *Client) Query(source, dest roadnet.NodeID) (Result, error) {
	return c.QueryWithProtection(source, dest, c.fs, c.ft)
}

// QueryWithProtection requests the shortest path from source to dest with
// explicit protection settings for this query only.
func (c *Client) QueryWithProtection(source, dest roadnet.NodeID, fs, ft int) (Result, error) {
	switch {
	case c.local != nil:
		res := <-c.local.Submit(obfuscate.Request{
			User:   c.user,
			Source: source,
			Dest:   dest,
			FS:     fs,
			FT:     ft,
		})
		if res.Err != nil {
			return Result{}, res.Err
		}
		return Result{Path: res.Path, Found: res.Found}, nil
	case c.remote != nil:
		req := protocol.ClientRequest{
			RequestID: c.requestID.Add(1),
			User:      string(c.user),
			Source:    source,
			Dest:      dest,
			FS:        fs,
			FT:        ft,
		}
		reply, err := c.remote.Do(req)
		if err != nil {
			return Result{}, err
		}
		switch m := reply.(type) {
		case protocol.ClientReply:
			if m.Error != "" {
				return Result{}, fmt.Errorf("client: obfuscator error: %s", m.Error)
			}
			if !m.Found {
				return Result{Found: false}, nil
			}
			return Result{Path: search.Path{Nodes: m.Path, Cost: m.Cost}, Found: true}, nil
		default:
			return Result{}, fmt.Errorf("client: unexpected reply type %T", reply)
		}
	default:
		return Result{}, fmt.Errorf("client: not connected")
	}
}

// DirectClient bypasses the obfuscator and queries a directions search server
// directly, exposing the true (s, t) pair — the no-privacy reference used by
// the baselines and as the "exact path" ground truth in experiments.
type DirectClient struct {
	exec    obfsvc.QueryExecutor
	queryID atomic.Uint64
}

// NewDirect wraps a query executor (an in-process server or a remote
// connection) as a no-privacy client.
func NewDirect(exec obfsvc.QueryExecutor) (*DirectClient, error) {
	if exec == nil {
		return nil, fmt.Errorf("client: nil executor")
	}
	return &DirectClient{exec: exec}, nil
}

// MustNewDirect is NewDirect but panics on error.
func MustNewDirect(exec obfsvc.QueryExecutor) *DirectClient {
	c, err := NewDirect(exec)
	if err != nil {
		panic(err)
	}
	return c
}

// Query asks the server for the exact path from source to dest.
func (c *DirectClient) Query(source, dest roadnet.NodeID) (Result, error) {
	reply, err := c.exec.Execute(protocol.ServerQuery{
		QueryID: c.queryID.Add(1),
		Sources: []roadnet.NodeID{source},
		Dests:   []roadnet.NodeID{dest},
	})
	if err != nil {
		return Result{}, err
	}
	for _, cand := range reply.Paths {
		if cand.Source == source && cand.Dest == dest {
			return Result{Path: protocol.PathFromCandidate(cand), Found: cand.Found}, nil
		}
	}
	return Result{}, fmt.Errorf("client: server reply missing pair (%d,%d)", source, dest)
}
