package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"bcrdb/internal/core"
	"bcrdb/internal/engine"
	"bcrdb/internal/types"
)

// HTTPClient speaks the bcrdb wire protocol to one server. It is safe
// for concurrent use; the underlying http.Client pools connections, so
// a client that makes one unary call at a time holds one connection.
type HTTPClient struct {
	base string
	hc   *http.Client
}

// Dial returns a client for the given base URL ("http://host:port").
// No connection is opened until the first call.
func Dial(base string) *HTTPClient {
	return &HTTPClient{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{},
	}
}

// StatusError is a non-2xx wire response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("transport: server returned %d: %s", e.Code, e.Msg)
}

// do runs one unary request and decodes the JSON response into out.
func (c *HTTPClient) do(ctx context.Context, method, path string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Read the body to its end, whatever was decoded of it (nothing,
		// an error, a value without the encoder's trailing newline):
		// only a drained body hands its connection back for reuse.
		_, _ = io.CopyN(io.Discard, resp.Body, maxBodyBytes)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var er errorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Info implements Transport.
func (c *HTTPClient) Info(ctx context.Context) (Info, error) {
	var info Info
	err := c.do(ctx, http.MethodGet, "/v1/info", nil, &info)
	return info, err
}

// Submit is SubmitAttempt's attempt-0 form: the normal route.
func (c *HTTPClient) Submit(ctx context.Context, txBytes []byte) error {
	return c.SubmitAttempt(ctx, txBytes, 0)
}

// SubmitAttempt implements Transport.
func (c *HTTPClient) SubmitAttempt(ctx context.Context, txBytes []byte, attempt int) error {
	return c.do(ctx, http.MethodPost, "/v1/submit", submitRequest{Tx: txBytes, Attempt: attempt}, nil)
}

// Query implements Transport.
func (c *HTTPClient) Query(ctx context.Context, height int64, sql string, params []types.Value) (*engine.Result, error) {
	req := queryRequest{SQL: sql, Params: encodeParams(params), Height: height}
	var resp queryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Relay posts one cluster message to the server's fabric.
func (c *HTTPClient) Relay(ctx context.Context, from, to, kind string, payload []byte) error {
	return c.do(ctx, http.MethodPost, "/v1/relay", relayRequest{From: from, To: to, Kind: kind, Payload: payload}, nil)
}

// CommitStream implements Transport: one long-lived GET whose NDJSON
// lines are demuxed into the returned channel. The channel closes when
// the stream ends for any reason; callers that need a durable stream
// redial in a loop (bcrdb.Client's follower does).
func (c *HTTPClient) CommitStream(ctx context.Context) (<-chan core.TxResult, func(), error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/commits", nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, nil, &StatusError{Code: resp.StatusCode, Msg: resp.Status}
	}
	// Wait for the hello line so a returned stream is known-live.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		resp.Body.Close()
		cancel()
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, io.ErrUnexpectedEOF
	}

	out := make(chan core.TxResult, 256)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var wc wireCommit
			if err := json.Unmarshal(line, &wc); err != nil {
				return
			}
			if wc.ID == "" {
				continue // keepalive
			}
			select {
			case out <- core.TxResult{ID: wc.ID, Block: wc.Block, Committed: wc.Committed, Reason: wc.Reason}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, cancel, nil
}

// Close implements Transport.
func (c *HTTPClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
