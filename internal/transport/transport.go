// Package transport defines how a bcrdb client reaches a node: the
// Transport interface (submit a signed transaction, run a query, follow
// the commit stream) with two implementations — Direct, for clients in
// the same process as the fabric, and HTTPClient/Server, the real wire
// protocol spoken by cmd/bcrdb-server. The one client type (bcrdb.Client)
// holds either; where a submission attempt goes is one rule, Route.Dest,
// applied by Direct and by the Server alike.
//
// The wire protocol is HTTP/1.1 + JSON. Transactions cross the wire as
// the exact ledger.MarshalTransaction bytes (base64 in JSON), so the
// client's Ed25519 signature verifies unchanged on the far side; the
// server never re-encodes what was signed. Results reach every client the
// same way, from the commit stream of the node it is connected to: the
// node's own subscription channel in-process, newline-delimited JSON over
// a long-lived GET on the wire.
//
// Endpoints:
//
//	GET  /v1/info     node identity, org, chain height, checkpoint, alerts
//	POST /v1/submit   {"tx": base64, "attempt": n} → {"id": txid}; routed by
//	                  Route.Dest(id, n); "attempt" is optional (0), < 0 is 400
//	POST /v1/query    {"sql", "params", "height"} → {"cols", "rows"}
//	GET  /v1/commits  NDJSON stream of every commit on this node
//	POST /v1/relay    cluster-internal message injection (gateway path)
package transport

import (
	"context"
	"fmt"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/types"
)

// Transport is a client's connection to one node of the network.
type Transport interface {
	// Info describes the node this transport is connected to.
	Info(ctx context.Context) (Info, error)
	// SubmitAttempt delivers the marshalled, signed transaction for
	// ordering, to the destination Route.Dest picks for this attempt (0
	// is the normal route, each retry fails over one step). It returns
	// once the transaction is accepted for processing, not when it
	// commits — commits arrive on the CommitStream.
	SubmitAttempt(ctx context.Context, txBytes []byte, attempt int) error
	// Query runs a read-only query at the given height (height < 0
	// means the node's current height).
	Query(ctx context.Context, height int64, sql string, params []types.Value) (*engine.Result, error)
	// CommitStream subscribes to every transaction result committed on
	// the node. The returned stop function releases the subscription and
	// is idempotent. A remote stream's channel is closed when the stream
	// ends (stop called, context cancelled, or connection lost — callers
	// redial); an in-process stream never ends on its own.
	CommitStream(ctx context.Context) (<-chan core.TxResult, func(), error)
	// Close releases the transport.
	Close() error
}

// Info describes the node behind a transport: who it is, how far its
// chain and its checkpoint quorum (§3.3.4) have come, the divergence
// alerts it raised (§3.5), and the orderer it takes blocks from.
type Info struct {
	Node              string   `json:"node"`
	Org               string   `json:"org"`
	Flow              string   `json:"flow"`
	Height            int64    `json:"height"`
	SealedHeight      int64    `json:"sealed_height"`
	LastCheckpoint    uint64   `json:"last_checkpoint"`
	Alerts            []string `json:"alerts"`
	DeliveringOrderer string   `json:"delivering_orderer"`
	Orderers          int      `json:"orderers"`
}

// NodeBackend is what the transport layer needs from a database node.
// *core.Node satisfies it; tests substitute fakes.
type NodeBackend interface {
	Name() string
	Org() string
	Height() int64
	SealedHeight() int64
	LastCheckpoint() uint64
	Alerts() []string
	DeliveringOrderer() string
	Query(sql string, params ...types.Value) (*engine.Result, error)
	QueryAt(height int64, sql string, params ...types.Value) (*engine.Result, error)
	SubscribeAll() <-chan core.TxResult
	UnsubscribeAll(ch <-chan core.TxResult)
}

var _ NodeBackend = (*core.Node)(nil)

// Wire request/response bodies.

type submitRequest struct {
	Tx      []byte `json:"tx"`                // ledger.MarshalTransaction bytes, base64 by encoding/json
	Attempt int    `json:"attempt,omitempty"` // which stop of Route.Dest; 0 = the normal route
}

type submitResponse struct {
	ID string `json:"id"`
}

type queryRequest struct {
	SQL    string      `json:"sql"`
	Params []wireValue `json:"params,omitempty"`
	Height int64       `json:"height"` // < 0: node's current height
}

type queryResponse struct {
	Cols []string      `json:"cols"`
	Rows [][]wireValue `json:"rows"`
}

type relayRequest struct {
	From    string `json:"from"`
	To      string `json:"to"`
	Kind    string `json:"kind"`
	Payload []byte `json:"payload"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// wireCommit is one line of the /v1/commits NDJSON stream. A line with
// an empty ID is a keepalive and carries no result.
type wireCommit struct {
	ID        string `json:"id,omitempty"`
	Block     uint64 `json:"block,omitempty"`
	Committed bool   `json:"committed,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// wireValue is the JSON form of a types.Value. Exactly one of the
// typed fields is meaningful, selected by Kind.
type wireValue struct {
	Kind  string  `json:"k"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
	Str   string  `json:"s,omitempty"`
	Bool  bool    `json:"b,omitempty"`
	Bytes []byte  `json:"x,omitempty"`
}

func encodeValue(v types.Value) wireValue {
	switch v.Kind() {
	case types.KindBool:
		return wireValue{Kind: "bool", Bool: v.Bool()}
	case types.KindInt:
		return wireValue{Kind: "int", Int: v.Int()}
	case types.KindFloat:
		return wireValue{Kind: "float", Float: v.Float()}
	case types.KindString:
		return wireValue{Kind: "text", Str: v.Str()}
	case types.KindBytes:
		return wireValue{Kind: "bytes", Bytes: v.Bytes()}
	default:
		return wireValue{Kind: "null"}
	}
}

func decodeValue(w wireValue) (types.Value, error) {
	switch w.Kind {
	case "null":
		return types.Null(), nil
	case "bool":
		return types.NewBool(w.Bool), nil
	case "int":
		return types.NewInt(w.Int), nil
	case "float":
		return types.NewFloat(w.Float), nil
	case "text":
		return types.NewString(w.Str), nil
	case "bytes":
		return types.NewBytes(w.Bytes), nil
	default:
		return types.Value{}, fmt.Errorf("transport: unknown value kind %q", w.Kind)
	}
}

func encodeParams(params []types.Value) []wireValue {
	out := make([]wireValue, len(params))
	for i, p := range params {
		out[i] = encodeValue(p)
	}
	return out
}

func decodeParams(ws []wireValue) ([]types.Value, error) {
	out := make([]types.Value, len(ws))
	for i, w := range ws {
		v, err := decodeValue(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func encodeResult(res *engine.Result) queryResponse {
	qr := queryResponse{Cols: res.Cols, Rows: make([][]wireValue, len(res.Rows))}
	for i, row := range res.Rows {
		qr.Rows[i] = encodeParams(row)
	}
	return qr
}

func decodeResult(qr queryResponse) (*engine.Result, error) {
	res := &engine.Result{Cols: qr.Cols, Rows: make([]types.Row, len(qr.Rows))}
	for i, row := range qr.Rows {
		vals, err := decodeParams(row)
		if err != nil {
			return nil, err
		}
		res.Rows[i] = vals
	}
	return res, nil
}
