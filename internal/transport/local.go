package transport

import (
	"context"

	"bcrdb/internal/codec"
	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/ordering"
	"bcrdb/internal/simnet"
	"bcrdb/internal/types"
)

// Route is the one rule for where a client's submission enters the
// fabric, shared by Direct and Server so an in-process and a dialed client
// fail over identically. Network builds it: Nodes always contains the
// connected node, and Orderers is non-empty under order-then-execute.
type Route struct {
	Flow core.Flow
	// Nodes is the ring of database-node endpoints and Home the connected
	// node's index in it.
	Nodes []string
	Home  int
	// Orderers is the ring of ordering-service endpoints.
	Orderers []string
}

// Dest picks the endpoint and message kind for one submission attempt.
// Execute-order: the connected node validates and forwards (§3.2), and
// each retry moves one node along the ring. Order-then-execute: clients
// talk straight to the ordering service (§3.3) — attempt 0 goes to the
// orderer owning the id's hash and each retry to the next orderer, so a
// silent one is walked past. A node forwards an execute-order submission
// to the orderer this route's attempt k picks, k its place in the node
// ring, so an execute-order retry walks the orderers too.
//
// attempt is not negative; it is reduced before it is added, so no value
// a request can carry overflows the index.
func (r Route) Dest(txID string, attempt int) (to, kind string) {
	ring, first, kind := r.Nodes, r.Home, core.KindSubmit
	if r.Flow == core.OrderThenExecute {
		ring, kind = r.Orderers, ordering.KindSubmit
		first = int(ordering.FNV1a(txID) % uint32(len(ring)))
	}
	return ring[(first+attempt%len(ring))%len(ring)], kind
}

// Direct is the in-process transport: it registers one simnet endpoint
// and delivers submissions over the same message fabric node peers use.
// It exists so local and remote clients share one code path — the only
// difference between them is which Transport they hold.
type Direct struct {
	node  NodeBackend
	ep    *simnet.Endpoint
	route Route
}

// NewDirect registers endpoint epName on the network and connects it to
// the given node; route says where its submissions go.
func NewDirect(net *simnet.Network, epName string, node NodeBackend, route Route) (*Direct, error) {
	ep, err := net.Register(epName, func(simnet.Message) {})
	if err != nil {
		return nil, err
	}
	return &Direct{node: node, ep: ep, route: route}, nil
}

// Info implements Transport.
func (d *Direct) Info(context.Context) (Info, error) {
	return nodeInfo(d.node, d.route), nil
}

// SubmitAttempt implements Transport. The bytes come from this process's
// own client, so nothing is decoded beyond what routing needs: nothing in
// execute-order, the id — the encoding's first field — otherwise.
func (d *Direct) SubmitAttempt(_ context.Context, txBytes []byte, attempt int) error {
	var id string
	if d.route.Flow == core.OrderThenExecute {
		id = codec.NewDec(txBytes).String()
	}
	to, kind := d.route.Dest(id, attempt)
	return d.ep.Send(to, kind, txBytes)
}

// Query implements Transport.
func (d *Direct) Query(_ context.Context, height int64, sql string, params []types.Value) (*engine.Result, error) {
	if height < 0 {
		return d.node.Query(sql, params...)
	}
	return d.node.QueryAt(height, sql, params...)
}

// CommitStream implements Transport by handing out the node's own
// subscription channel: nothing is copied, and the channel never closes.
// stop is idempotent and also safe after Close.
func (d *Direct) CommitStream(context.Context) (<-chan core.TxResult, func(), error) {
	ch := d.node.SubscribeAll()
	return ch, func() { d.node.UnsubscribeAll(ch) }, nil
}

// Close implements Transport: it releases the endpoint. Streams are
// released by their own stop.
func (d *Direct) Close() error {
	d.ep.Unregister()
	return nil
}

// nodeInfo describes a node and the route of the transport in front of it.
func nodeInfo(node NodeBackend, route Route) Info {
	flow := "execute-order"
	if route.Flow == core.OrderThenExecute {
		flow = "order-execute"
	}
	return Info{
		Node:              node.Name(),
		Org:               node.Org(),
		Flow:              flow,
		Height:            node.Height(),
		SealedHeight:      node.SealedHeight(),
		LastCheckpoint:    node.LastCheckpoint(),
		Alerts:            node.Alerts(),
		DeliveringOrderer: node.DeliveringOrderer(),
		Orderers:          len(route.Orderers),
	}
}
