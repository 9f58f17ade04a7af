// Package transport defines the message-passing abstraction shared by
// every protocol in this repository, and a channel multiplexer for layering
// several protocols over one endpoint.
//
// Two implementations exist:
//
//   - memnet: an in-process simulated network with configurable link
//     latency, egress bandwidth and crash-stop failures — the substrate
//     for the paper's experiments (link faults come from package chaos);
//   - tcpnet: a real TCP transport with length-prefixed frames for
//     multi-process deployments.
package transport

import (
	"errors"

	"astro/internal/types"
)

// NodeID identifies an endpoint on a network. Replicas use their
// types.ReplicaID values directly; client endpoints are allocated from
// ClientNodeBase upwards so the two spaces never collide.
type NodeID uint32

// ClientNodeBase is the first NodeID used for client endpoints.
const ClientNodeBase NodeID = 1 << 20

// ReplicaNode converts a replica identity to its network address.
func ReplicaNode(id types.ReplicaID) NodeID { return NodeID(id) }

// ClientNode converts a client identity to its network address.
func ClientNode(id types.ClientID) NodeID { return ClientNodeBase + NodeID(id) }

// Handler processes an inbound message. Implementations of Endpoint invoke
// the handler sequentially from a single reader goroutine per endpoint, so
// a handler installed directly with SetHandler may maintain state without
// locking.
//
// Protocols, however, attach through Mux, whose dispatch is sharded: each
// registered Channel gets its own flow on the lane scheduler, so handlers
// of one channel run sequentially (per-channel FIFO) but handlers of
// different channels run concurrently. Protocol state shared across
// channels must be synchronized; a timer that must not race a channel's
// handlers runs on that channel's flow through Mux.After. See Mux.
type Handler func(from NodeID, payload []byte)

// ErrSelfSend is returned by every Endpoint's Send to its own address. A
// node's own step is local state, not a message: protocols apply their
// own votes by direct call and arm timers with Mux.After.
var ErrSelfSend = errors.New("transport: send to self")

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns this endpoint's address.
	ID() NodeID
	// Send transmits payload to the endpoint with address to. Send never
	// blocks on remote progress; delivery is asynchronous and, on memnet,
	// subject to the configured latency model. Sending to self delivers
	// nothing and returns ErrSelfSend.
	Send(to NodeID, payload []byte) error
	// SetHandler installs the inbound message handler. No message is
	// delivered before it is called; implementations buffer frames that
	// arrive earlier (tcpnet parks them and flushes, in arrival order, on
	// installation) or may drop them, so protocols must still install the
	// handler before expecting traffic.
	SetHandler(h Handler)
	// Close detaches the endpoint. Further Sends fail.
	Close() error
}
