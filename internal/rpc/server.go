// Package rpc exposes the blockchain node over JSON-RPC 2.0, mirroring
// the Multichain daemon surface the paper's Go daemon wraps (§5.1):
// creating, signing and sending raw transactions, publishing OP_RETURN
// data, and querying blocks and unspent outputs.
//
// The server speaks the JSON-RPC 2.0 wire format: requests carry
// `"jsonrpc": "2.0"`, requests without an id (or with a null id) are
// notifications and receive no response, and one POST carries one
// request: a body that is not a request object, an array included, is
// refused with -32600. Legacy 1.0-style requests (no jsonrpc member,
// integer ids) are still accepted.
package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/telemetry"
)

// Request is a JSON-RPC 2.0 request. A nil or null ID marks a
// notification: the server executes it but sends no response.
type Request struct {
	JSONRPC string            `json:"jsonrpc,omitempty"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params,omitempty"`
	ID      json.RawMessage   `json:"id,omitempty"`
}

// IsNotification reports whether the request carries no id.
func (r *Request) IsNotification() bool {
	return len(r.ID) == 0 || bytes.Equal(bytes.TrimSpace(r.ID), []byte("null"))
}

// Response is a JSON-RPC 2.0 response.
type Response struct {
	JSONRPC string          `json:"jsonrpc"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
	ID      json.RawMessage `json:"id"`
}

// Error is a JSON-RPC error object.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// Standard JSON-RPC 2.0 error codes.
const (
	CodeParseError     = -32700
	CodeInvalidRequest = -32600
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeServerError    = -32000
)

// maxRequestBytes caps an HTTP request body; a full MaxBlockTxs block
// of maximum-size transactions still fits.
const maxRequestBytes = 8 << 20

// Backend is the node state the server exposes.
type Backend struct {
	Chain   *chain.Chain
	Mempool *chain.Mempool
	// Submit admits a sendrawtransaction to the mempool, and relays it
	// once admitted (the daemon passes its ledger's Submit, the one
	// local admission path).
	Submit func(*chain.Tx) error
	// Telemetry, when set, is served at GET /metrics (Prometheus text)
	// and by the getmetrics method, and the server records its own
	// request metrics in it.
	Telemetry *telemetry.Registry
	// SyncInfo, when set, backs the getsyncinfo method (the daemon wires
	// its sync state machine's progress surface here).
	SyncInfo func() any
	// Channels, when set, resolves the payment-channel subsystem behind
	// the openchannel / getchannelinfo / closechannel / listchannels
	// methods. Late-bound like SyncInfo: the daemon enables channels
	// after the RPC server starts, so the backend holds a getter, not
	// the ops value itself. A nil getter or a nil result means the
	// subsystem is disabled.
	Channels func() ChannelOps
}

// ChannelOps is the payment-channel surface a daemon exposes over RPC.
// Results are JSON-marshalable summaries owned by the implementation.
type ChannelOps interface {
	// OpenChannel funds a channel to a gateway's p2p overlay address
	// (0 capacity = the daemon's configured default).
	OpenChannel(peer string, capacity uint64) (any, error)
	// ChannelInfo returns the state of one channel endpoint by id.
	ChannelInfo(id string) (any, error)
	// CloseChannel settles a channel on-chain.
	CloseChannel(id string) (any, error)
	// ListChannels returns every known channel endpoint.
	ListChannels() (any, error)
}

// handlerFunc executes one RPC method against the node backend.
type handlerFunc func(s *Server, params []json.RawMessage) (any, error)

// methods is the dispatch table. Adding a method is one entry here plus
// a handler below — no switch to grow. Populated in init to let
// listmethods enumerate the table without an initialization cycle.
var methods map[string]handlerFunc

func init() {
	methods = map[string]handlerFunc{
		"getblockcount":      handleGetBlockCount,
		"getbestblockhash":   handleGetBestBlockHash,
		"getblock":           handleGetBlock,
		"getblockheader":     handleGetBlockHeader,
		"getchaintips":       handleGetChainTips,
		"getsyncinfo":        handleGetSyncInfo,
		"getrawtransaction":  handleGetRawTransaction,
		"getconfirmations":   handleGetConfirmations,
		"sendrawtransaction": handleSendRawTransaction,
		"listunspent":        handleListUnspent,
		"getbalance":         handleGetBalance,
		"listmethods":        handleListMethods,
		"getmetrics":         handleGetMetrics,
		"openchannel":        handleOpenChannel,
		"getchannelinfo":     handleGetChannelInfo,
		"closechannel":       handleCloseChannel,
		"listchannels":       handleListChannels,
	}
}

// Server is an HTTP JSON-RPC 2.0 server.
type Server struct {
	backend  Backend
	server   *http.Server
	listener net.Listener
	metrics  *rpcMetrics // nil when Backend.Telemetry is nil

	mu     sync.Mutex
	closed bool
}

// NewServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, backend Backend) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc listen: %w", err)
	}
	s := &Server{backend: backend, listener: l}
	if backend.Telemetry != nil {
		s.metrics = newRPCMetrics(backend.Telemetry)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handle)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.server = &http.Server{Handler: mux}
	go s.server.Serve(l) //nolint:errcheck // Serve returns on Close.
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.server.Close()
}

// handle reads one HTTP request carrying one JSON-RPC call. Malformed
// JSON (-32700) and valid JSON that is not one request object (-32600)
// produce a JSON-RPC error object with a null id, never a bare HTTP
// error, and run no method.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	if m := s.metrics; m != nil {
		start := time.Now()
		m.inflight.Inc()
		defer func() {
			m.inflight.Dec()
			m.requestSeconds.ObserveSince(start)
		}()
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, s.protocolError(nil, &Error{Code: CodeParseError, Message: "request body unreadable or over size limit"}))
		return
	}
	var req Request
	var syntaxErr *json.SyntaxError
	switch err := json.Unmarshal(body, &req); {
	case errors.As(err, &syntaxErr):
		writeJSON(w, s.protocolError(nil, &Error{Code: CodeParseError, Message: err.Error()}))
		return
	case err != nil || bytes.TrimLeft(body, " \t\r\n")[0] != '{':
		// Valid JSON, but not one request object: an array, a scalar,
		// or an object whose members have the wrong types.
		writeJSON(w, s.protocolError(nil, &Error{Code: CodeInvalidRequest, Message: "body is not one request object"}))
		return
	}
	resp := s.dispatch(&req)
	if req.IsNotification() {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, resp)
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format at GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg := s.backend.Telemetry
	if reg == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Write errors mean a dead connection; nothing else to do.
	_ = telemetry.WritePrometheus(w, reg.Snapshot())
}

// dispatch routes one request through the method registry.
func (s *Server) dispatch(req *Request) *Response {
	s.metrics.methodCounter(req.Method).Inc()
	resp := s.dispatchInner(req)
	if resp.Error != nil {
		s.metrics.errorCounter(resp.Error.Code).Inc()
	}
	return resp
}

func (s *Server) dispatchInner(req *Request) *Response {
	handler, ok := methods[req.Method]
	if !ok {
		return errorResponse(req.ID, &Error{Code: CodeMethodNotFound, Message: req.Method})
	}
	result, err := handler(s, req.Params)
	if err != nil {
		var rpcErr *Error
		if !errors.As(err, &rpcErr) {
			rpcErr = &Error{Code: CodeServerError, Message: err.Error()}
		}
		return errorResponse(req.ID, rpcErr)
	}
	raw, merr := json.Marshal(result)
	if merr != nil {
		return errorResponse(req.ID, &Error{Code: CodeServerError, Message: merr.Error()})
	}
	return &Response{JSONRPC: "2.0", Result: raw, ID: normalizeID(req.ID)}
}

// protocolError builds a failure response for errors raised before
// dispatch (parse errors, invalid request objects), counting them in the
// per-code error series that dispatch maintains for method errors.
func (s *Server) protocolError(id json.RawMessage, rpcErr *Error) *Response {
	s.metrics.errorCounter(rpcErr.Code).Inc()
	return errorResponse(id, rpcErr)
}

// errorResponse builds a failure response. A nil id marshals as null,
// the spec's value for requests whose id could not be recovered.
func errorResponse(id json.RawMessage, rpcErr *Error) *Response {
	return &Response{JSONRPC: "2.0", Error: rpcErr, ID: normalizeID(id)}
}

// normalizeID maps an absent id to explicit null so responses always
// carry the member.
func normalizeID(id json.RawMessage) json.RawMessage {
	if len(id) == 0 {
		return json.RawMessage("null")
	}
	return id
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding errors mean a dead connection; nothing else to do.
	_ = json.NewEncoder(w).Encode(v)
}

// UnspentOutput is the listunspent result row.
type UnspentOutput struct {
	TxID      string `json:"txid"`
	Vout      uint32 `json:"vout"`
	Value     uint64 `json:"value"`
	LockHex   string `json:"lockhex"`
	Height    int64  `json:"height"`
	Coinbase  bool   `json:"coinbase"`
	Spendable bool   `json:"spendable"`
}

// BlockSummary is the getblock result at verbosity 2. For a pruned
// height the body fields are empty and Pruned is set — the header-only
// stub has no transactions left and no valid serialization.
type BlockSummary struct {
	Hash     string   `json:"hash"`
	Height   int64    `json:"height"`
	Time     int64    `json:"time"`
	TxIDs    []string `json:"tx"`
	RawHex   string   `json:"rawhex"`
	PrevHash string   `json:"previousblockhash"`
	Pruned   bool     `json:"pruned,omitempty"`
}

// HeaderSummary is the getblockheader (and getblock verbosity-1)
// result. Headers survive pruning, so it is available at every height.
type HeaderSummary struct {
	Hash        string `json:"hash"`
	Height      int64  `json:"height"`
	Time        int64  `json:"time"`
	PrevHash    string `json:"previousblockhash"`
	MerkleRoot  string `json:"merkleroot"`
	MinerPubKey string `json:"minerpubkey"`
}

// TipSummary is one getchaintips result row.
type TipSummary struct {
	Height    int64  `json:"height"`
	Hash      string `json:"hash"`
	BranchLen int64  `json:"branchlen"`
	Status    string `json:"status"`
}

// Method handlers. Each decodes its parameters with the typed helpers
// from params.go and returns a JSON-marshalable result.

func handleGetBlockCount(s *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	return s.backend.Chain.Height(), nil
}

func handleGetBestBlockHash(s *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	return s.backend.Chain.Tip().ID().String(), nil
}

// blockParam resolves the hash-or-height block reference getblock and
// getblockheader share: a JSON string is a block hash, a number is a
// best-branch height.
func blockParam(s *Server, raw json.RawMessage) (*chain.Block, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		var hs string
		if err := json.Unmarshal(trimmed, &hs); err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: err.Error()}
		}
		id, err := chain.HashFromString(hs)
		if err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: err.Error()}
		}
		b, ok := s.backend.Chain.BlockByID(id)
		if !ok {
			return nil, &Error{Code: CodeInvalidParams, Message: "block not found"}
		}
		return b, nil
	}
	var height int64
	if err := json.Unmarshal(trimmed, &height); err != nil {
		return nil, &Error{Code: CodeInvalidParams, Message: "block reference must be a hash string or a height"}
	}
	b, ok := s.backend.Chain.BlockAt(height)
	if !ok {
		return nil, &Error{Code: CodeInvalidParams, Message: "block not found"}
	}
	return b, nil
}

// blockPruned reports a header-only stub left behind by pruning (only
// genesis legitimately carries no transactions).
func blockPruned(b *chain.Block) bool {
	return b.Header.Height > 0 && len(b.Txs) == 0
}

func handleGetBlock(s *Server, params []json.RawMessage) (any, error) {
	if len(params) < 1 || len(params) > 2 {
		return nil, &Error{Code: CodeInvalidParams, Message: "expected 1 or 2 parameters"}
	}
	b, err := blockParam(s, params[0])
	if err != nil {
		return nil, err
	}
	verbosity := int64(2)
	if len(params) == 2 {
		if err := json.Unmarshal(params[1], &verbosity); err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: "verbosity must be a number"}
		}
	}
	switch verbosity {
	case 0:
		if blockPruned(b) {
			return nil, &Error{Code: CodeServerError,
				Message: fmt.Sprintf("block body at height %d pruned", b.Header.Height)}
		}
		return hex.EncodeToString(b.Serialize()), nil
	case 1:
		return headerSummary(b), nil
	case 2:
		return blockSummary(b), nil
	default:
		return nil, &Error{Code: CodeInvalidParams, Message: "verbosity must be 0, 1 or 2"}
	}
}

func handleGetBlockHeader(s *Server, params []json.RawMessage) (any, error) {
	if len(params) != 1 {
		return nil, &Error{Code: CodeInvalidParams, Message: "expected 1 parameter"}
	}
	b, err := blockParam(s, params[0])
	if err != nil {
		return nil, err
	}
	return headerSummary(b), nil
}

func handleGetChainTips(s *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	tips := s.backend.Chain.Tips()
	out := make([]TipSummary, len(tips))
	for i, tip := range tips {
		status := "valid-fork"
		if tip.Active {
			status = "active"
		}
		out[i] = TipSummary{
			Height:    tip.Height,
			Hash:      tip.ID.String(),
			BranchLen: tip.BranchLen,
			Status:    status,
		}
	}
	return out, nil
}

func handleGetSyncInfo(s *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	if s.backend.SyncInfo == nil {
		return nil, &Error{Code: CodeServerError, Message: "sync info unavailable"}
	}
	return s.backend.SyncInfo(), nil
}

func handleGetRawTransaction(s *Server, params []json.RawMessage) (any, error) {
	id, err := txIDParam(params)
	if err != nil {
		return nil, err
	}
	if tx, ok := s.backend.Mempool.Get(id); ok {
		return hex.EncodeToString(tx.Serialize()), nil
	}
	tx, _, ok := s.backend.Chain.FindTx(id)
	if !ok {
		return nil, &Error{Code: CodeInvalidParams, Message: "transaction not found"}
	}
	return hex.EncodeToString(tx.Serialize()), nil
}

func handleGetConfirmations(s *Server, params []json.RawMessage) (any, error) {
	id, err := txIDParam(params)
	if err != nil {
		return nil, err
	}
	return s.backend.Chain.Confirmations(id), nil
}

func handleSendRawTransaction(s *Server, params []json.RawMessage) (any, error) {
	txHex, err := oneParam[string](params)
	if err != nil {
		return nil, err
	}
	raw, err := hex.DecodeString(txHex)
	if err != nil {
		return nil, &Error{Code: CodeInvalidParams, Message: "bad hex"}
	}
	tx, err := chain.DeserializeTx(raw)
	if err != nil {
		return nil, &Error{Code: CodeInvalidParams, Message: err.Error()}
	}
	if err := s.backend.Submit(tx); err != nil {
		return nil, &Error{Code: CodeServerError, Message: err.Error()}
	}
	return tx.ID().String(), nil
}

func handleListUnspent(s *Server, params []json.RawMessage) (any, error) {
	hash, err := pubKeyHashParam(params)
	if err != nil {
		return nil, err
	}
	out := []UnspentOutput{}
	s.backend.Chain.ReadState(func(tip *chain.Block, utxo *chain.UTXOSet) {
		// A confirmed coin a pooled transaction already spends is listed
		// but not spendable: a second spend of it is a mempool conflict.
		offered := s.backend.Mempool.Spendable(hash, utxo, tip.Header.Height)
		for _, op := range utxo.FindByPubKeyHash(hash) {
			entry, _ := utxo.Get(op)
			_, spendable := offered.Get(op)
			out = append(out, UnspentOutput{
				TxID:      op.TxID.String(),
				Vout:      op.Index,
				Value:     entry.Out.Value,
				LockHex:   hex.EncodeToString(entry.Out.Lock),
				Height:    entry.Height,
				Coinbase:  entry.Coinbase,
				Spendable: spendable,
			})
		}
	})
	return out, nil
}

func handleGetBalance(s *Server, params []json.RawMessage) (any, error) {
	hash, err := pubKeyHashParam(params)
	if err != nil {
		return nil, err
	}
	var balance uint64
	s.backend.Chain.ReadState(func(_ *chain.Block, utxo *chain.UTXOSet) {
		balance = utxo.BalanceOf(hash)
	})
	return balance, nil
}

// handleGetMetrics returns the telemetry snapshot as JSON — the same
// series GET /metrics serves as Prometheus text, so the two expositions
// can never drift.
func handleGetMetrics(s *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	reg := s.backend.Telemetry
	if reg == nil {
		return nil, &Error{Code: CodeServerError, Message: "telemetry disabled"}
	}
	return reg.Snapshot(), nil
}

// channelOps resolves the late-bound channel subsystem, failing with a
// server error while (or wherever) it is disabled.
func (s *Server) channelOps() (ChannelOps, error) {
	if s.backend.Channels != nil {
		if ops := s.backend.Channels(); ops != nil {
			return ops, nil
		}
	}
	return nil, &Error{Code: CodeServerError, Message: "channel subsystem disabled"}
}

// handleOpenChannel funds a payment channel: params are the gateway's
// p2p address and an optional capacity (0 or absent = daemon default).
func handleOpenChannel(s *Server, params []json.RawMessage) (any, error) {
	ops, err := s.channelOps()
	if err != nil {
		return nil, err
	}
	if len(params) < 1 || len(params) > 2 {
		return nil, &Error{Code: CodeInvalidParams, Message: "expected 1 or 2 parameters"}
	}
	var peer string
	if err := json.Unmarshal(params[0], &peer); err != nil {
		return nil, &Error{Code: CodeInvalidParams, Message: "peer must be a string"}
	}
	var capacity uint64
	if len(params) == 2 {
		if err := json.Unmarshal(params[1], &capacity); err != nil {
			return nil, &Error{Code: CodeInvalidParams, Message: "capacity must be a number"}
		}
	}
	return ops.OpenChannel(peer, capacity)
}

func handleGetChannelInfo(s *Server, params []json.RawMessage) (any, error) {
	ops, err := s.channelOps()
	if err != nil {
		return nil, err
	}
	id, err := oneParam[string](params)
	if err != nil {
		return nil, err
	}
	return ops.ChannelInfo(id)
}

func handleCloseChannel(s *Server, params []json.RawMessage) (any, error) {
	ops, err := s.channelOps()
	if err != nil {
		return nil, err
	}
	id, err := oneParam[string](params)
	if err != nil {
		return nil, err
	}
	return ops.CloseChannel(id)
}

func handleListChannels(s *Server, params []json.RawMessage) (any, error) {
	ops, err := s.channelOps()
	if err != nil {
		return nil, err
	}
	if err := noParams(params); err != nil {
		return nil, err
	}
	return ops.ListChannels()
}

// handleListMethods returns the method catalog, so clients can discover
// the dispatch table.
func handleListMethods(_ *Server, params []json.RawMessage) (any, error) {
	if err := noParams(params); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	// Deterministic order for clients and tests.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names, nil
}

func blockSummary(b *chain.Block) BlockSummary {
	out := BlockSummary{
		Hash:     b.ID().String(),
		Height:   b.Header.Height,
		Time:     b.Header.Time,
		TxIDs:    []string{},
		PrevHash: b.Header.PrevBlock.String(),
	}
	if blockPruned(b) {
		out.Pruned = true
		return out
	}
	for _, tx := range b.Txs {
		out.TxIDs = append(out.TxIDs, tx.ID().String())
	}
	out.RawHex = hex.EncodeToString(b.Serialize())
	return out
}

func headerSummary(b *chain.Block) HeaderSummary {
	return HeaderSummary{
		Hash:        b.ID().String(),
		Height:      b.Header.Height,
		Time:        b.Header.Time,
		PrevHash:    b.Header.PrevBlock.String(),
		MerkleRoot:  b.Header.MerkleRoot.String(),
		MinerPubKey: hex.EncodeToString(b.Header.MinerPubKey),
	}
}
