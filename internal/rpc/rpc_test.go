package rpc

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

type fixture struct {
	t       *testing.T
	chain   *chain.Chain
	mempool *chain.Mempool
	miner   *chain.Miner
	alice   *wallet.Wallet
	bob     *wallet.Wallet
	server  *Server
	client  *Client
	gossip  []*chain.Tx
	reg     *telemetry.Registry
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	alice, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{alice.PubKeyHash(): 1_000_000})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	pool.Instrument(reg)

	f := &fixture{
		t:       t,
		chain:   c,
		mempool: pool,
		miner:   chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		alice:   alice,
		bob:     bob,
		reg:     reg,
	}
	ledger := &fairex.Node{
		Chain:    c,
		Pool:     pool,
		OnSubmit: func(tx *chain.Tx) { f.gossip = append(f.gossip, tx) },
	}
	f.server, err = NewServer("", Backend{
		Chain:     c,
		Mempool:   pool,
		Submit:    ledger.Submit,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.server.Close() })
	f.client = NewClient(f.server.Addr())
	return f
}

// rawPost sends an arbitrary body and returns status plus response body.
func (f *fixture) rawPost(body string) (int, []byte) {
	f.t.Helper()
	resp, err := http.Post("http://"+f.server.Addr()+"/", "application/json", strings.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		f.t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// send submits a transaction through sendrawtransaction.
func (f *fixture) send(tx *chain.Tx) (string, error) {
	var txid string
	err := f.client.Call(context.Background(), "sendrawtransaction", &txid, hex.EncodeToString(tx.Serialize()))
	return txid, err
}

// fromHex decodes a hex-encoded RPC result with a chain deserializer.
func fromHex[T any](t *testing.T, s string, decode func([]byte) (T, error)) T {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGetBlockCount(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	var h int64
	if err := f.client.Call(ctx, "getblockcount", &h); err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("height = %d, want 0", h)
	}
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Call(ctx, "getblockcount", &h); err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Fatalf("height = %d, want 1", h)
	}
}

func TestSendRawTransactionRoundTrip(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	tx, err := f.alice.BuildPayment(f.chain.UTXO(), f.bob.PubKeyHash(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	txid, err := f.send(tx)
	if err != nil {
		t.Fatal(err)
	}
	if txid != tx.ID().String() {
		t.Fatalf("txid = %s, want %s", txid, tx.ID())
	}
	if !f.mempool.Contains(tx.ID()) {
		t.Fatal("transaction not in mempool")
	}
	if len(f.gossip) != 1 {
		t.Fatalf("gossip callbacks = %d, want 1", len(f.gossip))
	}

	// Fetch it back from the mempool.
	var txHex string
	if err := f.client.Call(ctx, "getrawtransaction", &txHex, tx.ID().String()); err != nil {
		t.Fatal(err)
	}
	if back := fromHex(t, txHex, chain.DeserializeTx); back.ID() != tx.ID() {
		t.Fatal("mempool fetch mismatch")
	}

	// After mining, confirmations report 1 and getblock returns it.
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	var conf int64
	if err := f.client.Call(ctx, "getconfirmations", &conf, tx.ID().String()); err != nil {
		t.Fatal(err)
	}
	if conf != 1 {
		t.Fatalf("confirmations = %d, want 1", conf)
	}
	var sum BlockSummary
	if err := f.client.Call(ctx, "getblock", &sum, 1); err != nil {
		t.Fatal(err)
	}
	blk := fromHex(t, sum.RawHex, chain.DeserializeBlock)
	found := false
	for _, btx := range blk.Txs {
		if btx.ID() == tx.ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("transaction not in fetched block")
	}
}

func TestSendRawTransactionRejectsInvalid(t *testing.T) {
	f := newFixture(t)
	// bob has no funds; a self-built spend of nonexistent coins fails.
	tx, err := f.alice.BuildPayment(f.chain.UTXO(), f.bob.PubKeyHash(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Inputs[0].Prev.Index = 999 // nonexistent outpoint
	if _, err := f.send(tx); err == nil {
		t.Fatal("invalid transaction accepted")
	}
	var rpcErr *Error
	if _, err := f.send(tx); !errors.As(err, &rpcErr) {
		t.Fatalf("err = %T, want *rpc.Error", err)
	}
}

func TestListUnspentAndBalance(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	alice := EncodePubKeyHash(f.alice.PubKeyHash())
	var outs []UnspentOutput
	if err := f.client.Call(ctx, "listunspent", &outs, alice); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Value != 1_000_000 || !outs[0].Spendable {
		t.Fatalf("unspent = %+v", outs)
	}
	var bal uint64
	if err := f.client.Call(ctx, "getbalance", &bal, alice); err != nil {
		t.Fatal(err)
	}
	if bal != 1_000_000 {
		t.Fatalf("balance = %d", bal)
	}
	var empty []UnspentOutput
	if err := f.client.Call(ctx, "listunspent", &empty, EncodePubKeyHash(f.bob.PubKeyHash())); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("bob unspent = %+v, want none", empty)
	}

	// Once a pooled transaction spends alice's only coin, the confirmed
	// row stays listed but a second spend of it would be a conflict.
	tx, err := f.alice.BuildPayment(f.chain.UTXO(), f.bob.PubKeyHash(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.send(tx); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Call(ctx, "listunspent", &outs, alice); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].TxID != tx.Inputs[0].Prev.TxID.String() || outs[0].Spendable {
		t.Fatalf("unspent after pooled spend = %+v, want the coin listed as not spendable", outs)
	}
}

func TestUnknownMethod(t *testing.T) {
	f := newFixture(t)
	err := f.client.Call(context.Background(), "getwalletinfo", nil)
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeMethodNotFound {
		t.Fatalf("err = %v, want method-not-found", err)
	}
}

func TestBadParams(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	var out string
	err := f.client.Call(ctx, "getblock", &out) // missing param
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("err = %v, want invalid-params", err)
	}
	err = f.client.Call(ctx, "getblock", &out, 99999) // out of range
	if !errors.As(err, &rpcErr) {
		t.Fatalf("err = %v, want rpc.Error", err)
	}
	err = f.client.Call(ctx, "getrawtransaction", &out, "nothex")
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("err = %v, want invalid-params", err)
	}
	err = f.client.Call(ctx, "listunspent", nil, "abcd")
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("err = %v, want invalid-params", err)
	}
	err = f.client.Call(ctx, "getblockcount", nil, "extra")
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("err = %v, want invalid-params for extra arg", err)
	}
}

func TestGetBestBlockHash(t *testing.T) {
	f := newFixture(t)
	var hash string
	if err := f.client.Call(context.Background(), "getbestblockhash", &hash); err != nil {
		t.Fatal(err)
	}
	if hash != f.chain.Tip().ID().String() {
		t.Fatalf("best hash = %s", hash)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	f := newFixture(t)
	if err := f.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Call(context.Background(), "getblockcount", nil); err == nil {
		t.Fatal("request succeeded after close")
	}
}

// TestJSONRPC20Envelope checks the 2.0 wire format: version member,
// id echo (including string ids), and legacy requests without a
// jsonrpc member still being served.
func TestJSONRPC20Envelope(t *testing.T) {
	f := newFixture(t)
	status, body := f.rawPost(`{"jsonrpc":"2.0","method":"getblockcount","params":[],"id":"abc-1"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.JSONRPC != "2.0" {
		t.Fatalf("jsonrpc = %q, want 2.0", resp.JSONRPC)
	}
	if string(bytes.TrimSpace(resp.ID)) != `"abc-1"` {
		t.Fatalf("id = %s, want \"abc-1\"", resp.ID)
	}
	if resp.Error != nil {
		t.Fatalf("error = %v", resp.Error)
	}

	// Legacy 1.0-style request: no jsonrpc member, integer id.
	_, body = f.rawPost(`{"method":"getblockcount","params":[],"id":7}`)
	resp = Response{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil || string(bytes.TrimSpace(resp.ID)) != "7" {
		t.Fatalf("legacy response = %+v", resp)
	}
}

// TestParseErrorObject checks that malformed bodies produce a JSON-RPC
// error object with code -32700 and a null id — not a bare HTTP error.
func TestParseErrorObject(t *testing.T) {
	f := newFixture(t)
	status, body := f.rawPost(`{"method": "getblockcount", `) // truncated
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 with error object", status)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("body %q not a response object: %v", body, err)
	}
	if resp.Error == nil || resp.Error.Code != CodeParseError {
		t.Fatalf("error = %+v, want code %d", resp.Error, CodeParseError)
	}
	if string(bytes.TrimSpace(resp.ID)) != "null" {
		t.Fatalf("id = %s, want null", resp.ID)
	}
}

// TestNotification checks that requests without an id get no response
// body.
func TestNotification(t *testing.T) {
	f := newFixture(t)
	status, body := f.rawPost(`{"jsonrpc":"2.0","method":"getblockcount","params":[]}`)
	if status != http.StatusNoContent {
		t.Fatalf("status = %d, want 204", status)
	}
	if len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("notification got body %q", body)
	}
}

// TestBatchRequests checks that one POST carries one request: an array
// body, the JSON-RPC 2.0 batch shape, is refused with one invalid-request
// object (null id) counted once, and none of its entries runs.
func TestBatchRequests(t *testing.T) {
	f := newFixture(t)
	for _, batch := range []string{`[
		{"jsonrpc":"2.0","method":"getblockcount","params":[],"id":1},
		{"jsonrpc":"2.0","method":"getblockcount","params":[]},
		{"jsonrpc":"2.0","method":"nosuchmethod","params":[],"id":2},
		42
	]`, `[]`} {
		status, body := f.rawPost(batch)
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("batch body %q is not one response object: %v", body, err)
		}
		if resp.Error == nil || resp.Error.Code != CodeInvalidRequest {
			t.Fatalf("error = %+v, want invalid-request", resp.Error)
		}
		if string(bytes.TrimSpace(resp.ID)) != "null" {
			t.Fatalf("id = %s, want null", resp.ID)
		}
	}
	var text bytes.Buffer
	if err := telemetry.WritePrometheus(&text, f.reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bcwan_rpc_requests_total{method="getblockcount"} 0`,
		`bcwan_rpc_errors_total{code="-32601"} 0`,
		`bcwan_rpc_errors_total{code="-32600"} 2`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestListMethods checks the dispatch-table catalog endpoint.
func TestListMethods(t *testing.T) {
	f := newFixture(t)
	var names []string
	if err := f.client.Call(context.Background(), "listmethods", &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != len(methods) {
		t.Fatalf("listmethods = %d entries, registry has %d", len(names), len(methods))
	}
	for _, want := range []string{"getblockcount", "sendrawtransaction", "listunspent"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("method %q missing from catalog %v", want, names)
		}
	}
}

// TestBodySizeCap checks that oversized request bodies are refused with
// a parse-error object instead of being read to completion.
func TestBodySizeCap(t *testing.T) {
	f := newFixture(t)
	huge := `{"method":"getblockcount","params":["` + strings.Repeat("a", maxRequestBytes+1024) + `"],"id":1}`
	_, body := f.rawPost(huge)
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("oversize body answer %q: %v", body[:min(len(body), 200)], err)
	}
	if resp.Error == nil || resp.Error.Code != CodeParseError {
		t.Fatalf("error = %+v, want parse error", resp.Error)
	}
}

// TestCallTimeout checks the per-call deadline fires.
func TestCallTimeout(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	if err := f.client.Call(ctx, "getblockcount", nil); err == nil {
		t.Fatal("call with canceled context succeeded")
	}
}

// TestConcurrentRPCAndMining is the race-focused test: blocks connect
// (parallel script verification, reorg-free fast path) while RPC
// clients hammer listunspent/getbalance and submit transactions. Run
// under -race this exercises the Chain lock, the shared signature
// cache and the memoized transaction IDs together.
func TestConcurrentRPCAndMining(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	const blocks = 8

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	// Reader goroutines: wallet state polls.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.client.Call(ctx, "listunspent", nil, EncodePubKeyHash(f.alice.PubKeyHash())); err != nil {
					errCh <- fmt.Errorf("listunspent: %w", err)
					return
				}
				if err := f.client.Call(ctx, "getbalance", nil, EncodePubKeyHash(f.bob.PubKeyHash())); err != nil {
					errCh <- fmt.Errorf("getbalance: %w", err)
					return
				}
			}
		}()
	}

	// Writer goroutine: submit payments through the RPC path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := f.alice.BuildPayment(f.chain.UTXO(), f.bob.PubKeyHash(), 10, 1)
			if err != nil {
				// Wallet raced the miner for its own change; retry.
				time.Sleep(time.Millisecond)
				continue
			}
			// Mempool conflicts with in-flight change are expected.
			_, _ = f.send(tx)
			time.Sleep(time.Millisecond)
		}
	}()

	// Mining loop on the test goroutine.
	for i := 0; i < blocks; i++ {
		if _, err := f.miner.Mine(time.Now()); err != nil {
			t.Fatalf("mine %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	var h int64
	if err := f.client.Call(ctx, "getblockcount", &h); err != nil {
		t.Fatal(err)
	}
	if h != blocks {
		t.Fatalf("height = %d, want %d", h, blocks)
	}
}

func TestGetBlockHeaderAndVerbosity(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	b, _ := f.chain.BlockAt(1)

	var hdr, byHash HeaderSummary
	if err := f.client.Call(ctx, "getblockheader", &hdr, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Call(ctx, "getblockheader", &byHash, b.ID().String()); err != nil {
		t.Fatal(err)
	}
	if hdr != byHash {
		t.Fatal("height and hash references resolve different headers")
	}
	if hdr.Hash != b.ID().String() || hdr.Height != 1 || hdr.PrevHash != b.Header.PrevBlock.String() {
		t.Fatalf("header summary mismatch: %+v", hdr)
	}

	// Verbosity 0 returns the canonical serialization.
	var blockHex string
	if err := f.client.Call(ctx, "getblock", &blockHex, b.ID().String(), 0); err != nil {
		t.Fatal(err)
	}
	if raw := fromHex(t, blockHex, chain.DeserializeBlock); raw.ID() != b.ID() {
		t.Fatal("raw block round trip changed the ID")
	}

	// Verbosity 1 is the same header summary under getblock.
	var hdr1 HeaderSummary
	if err := f.client.Call(ctx, "getblock", &hdr1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if hdr1 != hdr {
		t.Fatal("getblock verbosity 1 differs from getblockheader")
	}

	// Unknown verbosity is rejected.
	err := f.client.Call(ctx, "getblock", nil, 1, 3)
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeInvalidParams {
		t.Fatalf("verbosity 3: err = %v, want invalid-params", err)
	}
}

func TestGetBlockPrunedHeight(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := f.miner.Mine(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.chain.PruneBelow(3); err != nil {
		t.Fatal(err)
	}

	// The raw form is gone...
	err := f.client.Call(ctx, "getblock", new(string), 2, 0)
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeServerError {
		t.Fatalf("pruned raw block: err = %v, want server error", err)
	}
	// ...the summary says so instead of serving an empty body...
	var sum BlockSummary
	if err := f.client.Call(ctx, "getblock", &sum, 2); err != nil {
		t.Fatal(err)
	}
	if !sum.Pruned || sum.RawHex != "" || len(sum.TxIDs) != 0 {
		t.Fatalf("pruned summary = %+v", sum)
	}
	// ...and the header survives pruning.
	var hdr HeaderSummary
	if err := f.client.Call(ctx, "getblockheader", &hdr, 2); err != nil || hdr.Height != 2 {
		t.Fatalf("pruned header: %+v, %v", hdr, err)
	}
	// Heights above the horizon still serve their bodies.
	var blockHex string
	if err := f.client.Call(ctx, "getblock", &blockHex, 5, 0); err != nil {
		t.Fatal(err)
	}
	fromHex(t, blockHex, chain.DeserializeBlock)
}

func TestGetChainTips(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := f.miner.Mine(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	var tips []TipSummary
	if err := f.client.Call(ctx, "getchaintips", &tips); err != nil {
		t.Fatal(err)
	}
	if len(tips) != 1 {
		t.Fatalf("tips = %d, want 1", len(tips))
	}
	if tips[0].Status != "active" || tips[0].Height != 2 || tips[0].Hash != f.chain.Tip().ID().String() {
		t.Fatalf("tip = %+v", tips[0])
	}
}

func TestGetSyncInfoUnavailable(t *testing.T) {
	f := newFixture(t) // the bare fixture backend wires no SyncInfo
	err := f.client.Call(context.Background(), "getsyncinfo", nil)
	var rpcErr *Error
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeServerError {
		t.Fatalf("err = %v, want server error", err)
	}
}
