package recipient

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

type fixture struct {
	rcpt    *Recipient
	node    *fairex.Node
	miner   *chain.Miner
	gw      *wallet.Wallet
	nodeKey *bccrypto.RSA512PrivateKey
	eKey    *bccrypto.RSA512PrivateKey
	shared  []byte
	eui     lora.DevEUI
	now     time.Time
}

func newFixture(t *testing.T) *fixture { return newFixtureWith(t, 100_000, 0) }

// newFixtureWith funds the recipient with one genesis coin and puts the
// given number of unspent outputs paying other hashes beside it.
func newFixtureWith(t testing.TB, funds uint64, unrelated int) *fixture {
	t.Helper()
	rcptW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gwW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[[20]byte]uint64{rcptW.PubKeyHash(): funds}
	for i := 0; i < unrelated; i++ {
		alloc[[20]byte{0xff, byte(i >> 16), byte(i >> 8), byte(i)}] = 1
	}
	genesis := chain.GenesisBlock(alloc)
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	node := &fairex.Node{Chain: c, Pool: pool}

	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(shared); err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0x01}

	r := New(DefaultConfig(), rcptW, node)
	r.Provision(eui, DeviceInfo{SharedKey: shared, NodePub: nodeKey.Public()})
	return &fixture{
		rcpt:    r,
		node:    node,
		miner:   chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		gw:      gwW,
		nodeKey: nodeKey,
		eKey:    eKey,
		shared:  shared,
		eui:     eui,
		now:     time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC),
	}
}

func (f *fixture) mine(t testing.TB) {
	t.Helper()
	f.now = f.now.Add(15 * time.Second)
	if _, err := f.miner.Mine(f.now); err != nil {
		t.Fatal(err)
	}
}

// delivery builds a valid signed Delivery for the fixture's device.
func (f *fixture) delivery(t testing.TB, plaintext string) *fairex.Delivery {
	t.Helper()
	frame, err := bccrypto.EncryptFrame(rand.Reader, f.shared, []byte(plaintext))
	if err != nil {
		t.Fatal(err)
	}
	em, err := bccrypto.EncryptRSA512(rand.Reader, f.eKey.Public(), frame)
	if err != nil {
		t.Fatal(err)
	}
	ePk := bccrypto.MarshalRSA512PublicKey(f.eKey.Public())
	sig := bccrypto.SignRSA512(f.nodeKey, fairex.SignedBlob(em, ePk))
	return &fairex.Delivery{
		DevEUI:            f.eui,
		Exchange:          1,
		Em:                em,
		EPk:               ePk,
		Sig:               sig,
		GatewayPubKeyHash: f.gw.PubKeyHash(),
		Price:             100,
		RefundWindow:      100,
	}
}

func TestHandleDeliveryThenSettleClaimTx(t *testing.T) {
	f := newFixture(t)
	payment, err := f.rcpt.HandleDelivery(f.delivery(t, "9.81m/s2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.rcpt.PendingPayments()) != 1 {
		t.Fatal("payment not pending")
	}

	claim, err := f.gw.BuildClaim(chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], f.eKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := f.rcpt.SettleClaimTx(payment.ID(), claim)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Plaintext) != "9.81m/s2" {
		t.Fatalf("plaintext = %q", msg.Plaintext)
	}
	if len(f.rcpt.PendingPayments()) != 0 {
		t.Fatal("exchange not cleared after settle")
	}
	if f.rcpt.Stats.Decryptions != 1 || f.rcpt.Stats.Payments != 1 {
		t.Fatalf("stats = %+v", f.rcpt.Stats)
	}
}

func TestSettleClaimTxRejectsWrongSpender(t *testing.T) {
	f := newFixture(t)
	payment, err := f.rcpt.HandleDelivery(f.delivery(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	// A claim that does not spend this payment.
	other := &chain.Tx{Version: 9, Inputs: []chain.TxIn{{Prev: chain.OutPoint{TxID: chain.Hash{0xee}}}}}
	if _, err := f.rcpt.SettleClaimTx(payment.ID(), other); !errors.Is(err, fairex.ErrNoClaim) {
		t.Fatalf("err = %v, want ErrNoClaim", err)
	}
}

func TestSettleClaimTxUnknownPayment(t *testing.T) {
	f := newFixture(t)
	claimLike := &chain.Tx{Version: 1, Inputs: []chain.TxIn{{Prev: chain.OutPoint{TxID: chain.Hash{0x01}, Index: 0}}}}
	if _, err := f.rcpt.SettleClaimTx(chain.Hash{0x01}, claimLike); err == nil {
		t.Fatal("settle for unknown payment succeeded")
	}
}

func TestHandleDeliveryInsufficientFunds(t *testing.T) {
	f := newFixture(t)
	d := f.delivery(t, "x")
	d.Price = 100
	// Drain the recipient by paying out everything first.
	drain, err := f.rcpt.Wallet().BuildPayment(f.node.UTXO(), f.gw.PubKeyHash(), 99_998, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(drain); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rcpt.HandleDelivery(d); err == nil {
		t.Fatal("payment built without funds")
	}
}

func TestRefundUnknownPayment(t *testing.T) {
	f := newFixture(t)
	if _, err := f.rcpt.Refund(chain.Hash{0x42}); !errors.Is(err, ErrExchangeNotFound) {
		t.Fatalf("err = %v, want ErrExchangeNotFound", err)
	}
}

func TestRefundLifecycle(t *testing.T) {
	f := newFixture(t)
	payment, err := f.rcpt.HandleDelivery(f.delivery(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	// Before expiry nothing is built; the exchange stays pending.
	if _, err := f.rcpt.Refund(payment.ID()); !errors.Is(err, ErrRefundTooEarly) {
		t.Fatalf("early refund: err = %v, want ErrRefundTooEarly", err)
	}
	if len(f.rcpt.PendingPayments()) != 1 {
		t.Fatal("failed refund dropped the exchange")
	}
	for f.node.Height() < 101 {
		f.mine(t)
	}
	if _, err := f.rcpt.Refund(payment.ID()); err != nil {
		t.Fatalf("refund after expiry: %v", err)
	}
	if f.rcpt.Stats.Refunds != 1 {
		t.Fatalf("stats = %+v", f.rcpt.Stats)
	}
}

func TestSettleClaimFromChain(t *testing.T) {
	f := newFixture(t)
	payment, err := f.rcpt.HandleDelivery(f.delivery(t, "42"))
	if err != nil {
		t.Fatal(err)
	}
	claim, err := f.gw.BuildClaim(chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], f.eKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(claim); err != nil {
		t.Fatal(err)
	}
	// Unconfirmed: chain-scan settle fails.
	if _, err := f.rcpt.SettleClaim(payment.ID()); !errors.Is(err, fairex.ErrNoClaim) {
		t.Fatalf("err = %v, want ErrNoClaim before confirmation", err)
	}
	f.mine(t)
	msg, err := f.rcpt.SettleClaim(payment.ID())
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Plaintext) != "42" {
		t.Fatalf("plaintext = %q", msg.Plaintext)
	}
}

// TestConcurrentDeliveriesPayWithDistinctCoins runs eight HandleDelivery
// calls at once against a recipient holding eight confirmed coins. Each
// must return its own payment admitted to the pool: none may pick a coin
// another payment already spent and be refused as a double spend.
func TestConcurrentDeliveriesPayWithDistinctCoins(t *testing.T) {
	const n = 8
	f := newFixture(t)
	w := f.rcpt.Wallet()
	utxo := f.node.Spendable(w.PubKeyHash())
	split := &chain.Tx{Version: 1}
	for _, op := range utxo.FindByPubKeyHash(w.PubKeyHash()) {
		split.Inputs = append(split.Inputs, chain.TxIn{Prev: op})
	}
	for i := 0; i < n; i++ {
		split.Outputs = append(split.Outputs, chain.TxOut{Value: 10_000, Lock: script.PayToPubKeyHash(w.PubKeyHash())})
	}
	if err := w.SignP2PKHInputs(split, utxo); err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(split); err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	if got := len(f.node.Spendable(w.PubKeyHash()).FindByPubKeyHash(w.PubKeyHash())); got != n {
		t.Fatalf("recipient holds %d coins, want %d", got, n)
	}

	deliveries := make([]*fairex.Delivery, n)
	for i := range deliveries {
		deliveries[i] = f.delivery(t, fmt.Sprintf("reading-%d", i))
	}
	payments := make([]*chain.Tx, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range deliveries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payments[i], errs[i] = f.rcpt.HandleDelivery(deliveries[i])
		}()
	}
	wg.Wait()
	ids := make(map[chain.Hash]bool, n)
	for i, p := range payments {
		if errs[i] != nil {
			t.Fatalf("delivery %d: %v", i, errs[i])
		}
		if !f.node.Pool.Contains(p.ID()) {
			t.Fatalf("payment %d not in the pool", i)
		}
		ids[p.ID()] = true
	}
	if len(ids) != n {
		t.Fatalf("%d distinct payments for %d deliveries", len(ids), n)
	}
}

// TestInFlightCopyIsNotPaidTwice offers one delivery twice before its
// claim, as a duplicating link or a double-selling gateway would. The
// copy is refused as in flight without a second payment and without a
// replay charged; once the exchange settles, a copy is a replay.
func TestInFlightCopyIsNotPaidTwice(t *testing.T) {
	f := newFixture(t)
	d := f.delivery(t, "once")
	payment, err := f.rcpt.HandleDelivery(d)
	if err != nil {
		t.Fatal(err)
	}
	copied := *d
	if _, err := f.rcpt.HandleDelivery(&copied); !errors.Is(err, ErrDeliveryInFlight) {
		t.Fatalf("in-flight copy: err = %v, want ErrDeliveryInFlight", err)
	}
	if n := f.node.Pool.Len(); n != 1 {
		t.Fatalf("%d transactions pooled, want the one payment", n)
	}
	if s := f.rcpt.Stats; s.Payments != 1 || s.ReplaysDetected != 0 {
		t.Fatalf("stats = %+v, want 1 payment and no replay", s)
	}

	claim, err := f.gw.BuildClaim(chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], f.eKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rcpt.SettleClaimTx(payment.ID(), claim); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rcpt.SettleClaimTx(payment.ID(), claim); !errors.Is(err, ErrExchangeNotFound) {
		t.Fatalf("second settle: err = %v, want ErrExchangeNotFound", err)
	}
	if _, err := f.rcpt.HandleDelivery(&copied); !errors.Is(err, ErrReplayedDelivery) {
		t.Fatalf("settled copy: err = %v, want ErrReplayedDelivery", err)
	}
	if s := f.rcpt.Stats; s.Payments != 1 || s.Decryptions != 1 || s.ReplaysDetected != 1 {
		t.Fatalf("stats = %+v, want 1 payment, 1 decryption, 1 replay", s)
	}
}

// TestPaymentPassesOfferOneBlockAhead builds a payment at height h and
// checks it as a gateway whose offer was made at h+1 does: a recipient
// one block behind the gateway must still meet the refund window.
func TestPaymentPassesOfferOneBlockAhead(t *testing.T) {
	f := newFixture(t)
	f.mine(t)
	d := f.delivery(t, "skew")
	h := f.node.Height()
	payment, err := f.rcpt.HandleDelivery(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := fairex.CheckPayment(d, payment, h+1); err != nil {
		t.Fatalf("payment built at height %d, offer at %d: %v", h, h+1, err)
	}
}

// TestRefundForgetsTheExchange: once refunded, the delivery's record is
// gone, so a later copy is a fresh offer rather than a replay.
func TestRefundForgetsTheExchange(t *testing.T) {
	f := newFixture(t)
	d := f.delivery(t, "x")
	payment, err := f.rcpt.HandleDelivery(d)
	if err != nil {
		t.Fatal(err)
	}
	params, err := script.ParseKeyRelease(payment.Outputs[0].Lock)
	if err != nil {
		t.Fatal(err)
	}
	for f.node.Height() < params.RefundHeight {
		f.mine(t)
	}
	if _, err := f.rcpt.Refund(payment.ID()); err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	if len(f.rcpt.PendingPayments()) != 0 {
		t.Fatal("refunded exchange still pending")
	}
	if _, err := f.rcpt.HandleDelivery(d); err != nil {
		t.Fatalf("copy after refund: %v", err)
	}
}
