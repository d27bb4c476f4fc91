package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Client talks JSON-RPC 2.0 to a Server (or any Multichain-compatible
// subset), one request per HTTP POST. Every call is context-aware; when
// the supplied context has no deadline, the client bounds the call by
// DefaultCallTimeout.
type Client struct {
	url    string
	http   *http.Client
	nextID atomic.Int64
}

// DefaultCallTimeout bounds a call when the caller's context carries no
// deadline of its own.
const DefaultCallTimeout = 30 * time.Second

// NewClient creates a client for the daemon at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{url: "http://" + addr + "/", http: &http.Client{}}
}

// Call performs one JSON-RPC 2.0 round trip, decoding the result into
// out (pass nil to discard).
func (c *Client) Call(ctx context.Context, method string, out any, params ...any) error {
	rawParams := make([]json.RawMessage, len(params))
	for i, p := range params {
		b, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("rpc marshal param %d: %w", i, err)
		}
		rawParams[i] = b
	}
	id := json.RawMessage(strconv.FormatInt(c.nextID.Add(1), 10))
	body, err := json.Marshal(Request{JSONRPC: "2.0", Method: method, Params: rawParams, ID: id})
	if err != nil {
		return fmt.Errorf("rpc marshal: %w", err)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultCallTimeout)
		defer cancel()
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rpc request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return fmt.Errorf("rpc post: %w", err)
	}
	defer httpResp.Body.Close()
	respBody, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return fmt.Errorf("rpc read: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("rpc decode: %w", err)
	}
	if resp.Error != nil {
		return resp.Error
	}
	if out != nil {
		if err := json.Unmarshal(resp.Result, out); err != nil {
			return fmt.Errorf("rpc decode result: %w", err)
		}
	}
	return nil
}
