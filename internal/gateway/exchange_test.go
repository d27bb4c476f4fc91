package gateway_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// world wires the full Fig. 3 cast: a provisioned sensor, a foreign
// gateway, a recipient, a shared chain with a single miner, and the
// on-chain IP directory.
type world struct {
	t         *testing.T
	chain     *chain.Chain
	pool      *chain.Mempool
	miner     *chain.Miner
	ledger    *fairex.Node
	dir       *registry.Directory
	dev       *device.Device
	gw        *gateway.Gateway
	rcpt      *recipient.Recipient
	nodeKey   *bccrypto.RSA512PrivateKey
	sharedKey []byte
	now       time.Time
}

const recipientFunds = 1_000_000

func newWorld(t *testing.T, gwCfg gateway.Config, rcptCfg recipient.Config) *world {
	t.Helper()
	gwWallet, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rcptWallet, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	genesis := chain.GenesisBlock(map[[20]byte]uint64{
		rcptWallet.PubKeyHash(): recipientFunds,
	})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	ledger := &fairex.Node{Chain: c, Pool: pool}

	dir := registry.NewDirectory()
	dir.Attach(c)

	// Sensor provisioning: shared K, node signing key, @R.
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0xde, 0xca, 0xfb, 0xad, 0, 0, 0, 1}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: rcptWallet.PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	rcpt := recipient.New(rcptCfg, rcptWallet, ledger)
	rcpt.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})

	w := &world{
		t:         t,
		chain:     c,
		pool:      pool,
		miner:     chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		ledger:    ledger,
		dir:       dir,
		dev:       dev,
		gw:        gateway.New(gwCfg, gwWallet, ledger, dir, rand.Reader),
		rcpt:      rcpt,
		nodeKey:   nodeKey,
		sharedKey: sharedKey,
		now:       time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC),
	}

	// The recipient publishes its IP binding on-chain (§4.3).
	pub, err := registry.BuildPublish(rcptWallet, c.UTXO(), "192.0.2.50:7100", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Submit(pub); err != nil {
		t.Fatal(err)
	}
	w.mine()
	return w
}

func (w *world) mine() *chain.Block {
	w.t.Helper()
	w.now = w.now.Add(w.chain.Params().BlockInterval)
	b, err := w.miner.Mine(w.now)
	if err != nil {
		w.t.Fatal(err)
	}
	return b
}

// runExchange executes one complete Fig. 3 exchange and returns the
// decrypted message.
func (w *world) runExchange(plaintext string) (*recipient.Message, error) {
	w.t.Helper()
	// Steps 1–2 over LoRa.
	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		return nil, err
	}
	// Steps 3–5 on the node.
	dataFrame, err := w.dev.DataFrame([]byte(plaintext), keyResp.Payload, keyResp.Counter)
	if err != nil {
		return nil, err
	}
	// Steps 6–7 on the gateway.
	offerHeight := w.chain.Height()
	delivery, netAddr, err := w.gw.HandleData(dataFrame)
	if err != nil {
		return nil, err
	}
	if netAddr != "192.0.2.50:7100" {
		w.t.Fatalf("resolved %q, want the published binding", netAddr)
	}
	// Steps 8–9 on the recipient.
	payment, err := w.rcpt.HandleDelivery(delivery)
	if err != nil {
		return nil, err
	}
	// Step 10: the gateway sees the payment and claims it.
	if _, err := w.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight); err != nil {
		return nil, err
	}
	// The claim confirms; the recipient extracts eSk and decrypts.
	w.mine()
	return w.rcpt.SettleClaim(payment.ID())
}

func TestFullExchangeFig3(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	msg, err := w.runExchange("21.5C;48%")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Plaintext) != "21.5C;48%" {
		t.Fatalf("plaintext = %q", msg.Plaintext)
	}

	// Both payment and claim are on-chain.
	if w.gw.Stats.Claims != 1 || w.rcpt.Stats.Decryptions != 1 {
		t.Fatalf("stats: gw=%+v rcpt=%+v", w.gw.Stats, w.rcpt.Stats)
	}
	// The gateway was paid: price − claim fee.
	if got := w.gw.Wallet().Balance(w.chain.UTXO()); got != 100-1 {
		t.Fatalf("gateway balance = %d, want 99", got)
	}
}

func TestMultipleSequentialExchanges(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())
	for i, plaintext := range []string{"1.0", "2.0", "3.0"} {
		msg, err := w.runExchange(plaintext)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if string(msg.Plaintext) != plaintext {
			t.Fatalf("exchange %d plaintext = %q", i, msg.Plaintext)
		}
	}
	if got := w.gw.Wallet().Balance(w.chain.UTXO()); got != 3*99 {
		t.Fatalf("gateway balance = %d, want %d", got, 3*99)
	}
}

func TestGatewayCannotDecryptPayload(t *testing.T) {
	// Confidentiality (§4.4 property 1): the gateway holds eSk, so it
	// can strip the RSA layer — but the AES layer under K must stop it.
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("secret"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := device.DecodeDataPayload(dataFrame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial gateway: decrypt Em with its own eSk.
	eKeyBytes := keyResp.Payload
	_ = eKeyBytes
	// The gateway's pending key is internal; simulate by regenerating
	// the attack from the protocol surface: the gateway knows eSk, so
	// emulate with a fresh exchange where we control the key.
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := w.dev.DataFrame([]byte("secret"), bccrypto.MarshalRSA512PublicKey(eKey.Public()), 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := device.DecodeDataPayload(frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := bccrypto.DecryptRSA512(eKey, p2.Em)
	if err != nil {
		t.Fatal(err)
	}
	// inner is the AES frame; without K it must not decrypt.
	wrongKey := make([]byte, bccrypto.AESKeySize)
	if pt, err := bccrypto.DecryptFrame(wrongKey, inner); err == nil && string(pt) == "secret" {
		t.Fatal("gateway recovered plaintext without K")
	}
	_ = payload
}

func TestRecipientRejectsTamperedDelivery(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper with Em: signature verification must fail (§4.4 integrity).
	tampered := *delivery
	tampered.Em = append([]byte(nil), delivery.Em...)
	tampered.Em[0] ^= 0x01
	if _, err := w.rcpt.HandleDelivery(&tampered); !errors.Is(err, fairex.ErrBadOfferSignature) {
		t.Fatalf("tampered Em err = %v, want ErrBadOfferSignature", err)
	}

	// Substitute the ephemeral key (a MITM gateway swapping ePk): the
	// signature covers ePk, so this must fail too.
	otherKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	swapped := *delivery
	swapped.EPk = bccrypto.MarshalRSA512PublicKey(otherKey.Public())
	if _, err := w.rcpt.HandleDelivery(&swapped); !errors.Is(err, fairex.ErrBadOfferSignature) {
		t.Fatalf("swapped ePk err = %v, want ErrBadOfferSignature", err)
	}
}

func TestRecipientRejectsOverpricedOffer(t *testing.T) {
	gwCfg := gateway.DefaultConfig()
	gwCfg.Price = 10_000
	rcptCfg := recipient.DefaultConfig()
	rcptCfg.MaxPrice = 100
	w := newWorld(t, gwCfg, rcptCfg)

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.rcpt.HandleDelivery(delivery); !errors.Is(err, fairex.ErrPriceTooHigh) {
		t.Fatalf("err = %v, want ErrPriceTooHigh", err)
	}
}

func TestRecipientRejectsUnknownSensor(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())
	d := &fairex.Delivery{DevEUI: lora.DevEUI{0xff}}
	if _, err := w.rcpt.HandleDelivery(d); !errors.Is(err, recipient.ErrUnknownSensor) {
		t.Fatalf("err = %v, want ErrUnknownSensor", err)
	}
}

func TestGatewayRejectsDataWithoutKeyRequest(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := w.dev.DataFrame([]byte("x"), bccrypto.MarshalRSA512PublicKey(eKey.Public()), 999)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.gw.HandleData(frame); !errors.Is(err, gateway.ErrUnknownDevice) {
		t.Fatalf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestGatewayClaimRequiresVisiblePayment(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())
	keyReq := w.dev.KeyRequestFrame()
	if _, err := w.gw.HandleKeyRequest(keyReq); err != nil {
		t.Fatal(err)
	}
	_, err := w.gw.VerifyAndClaim(w.dev.EUI(), keyReq.Counter, chain.Hash{0x99}, 0)
	if !errors.Is(err, gateway.ErrPaymentNotVisible) {
		t.Fatalf("err = %v, want ErrPaymentNotVisible", err)
	}
}

func TestGatewayRejectsUnderpayment(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	offerHeight := w.chain.Height()
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}

	// A cheating recipient pays 1 instead of the price.
	cheap := *delivery
	cheap.Price = 1
	w.rcpt.Provision(w.dev.EUI(), recipient.DeviceInfo{SharedKey: w.sharedKey, NodePub: w.nodeKey.Public()})
	payment, err := w.rcpt.HandleDelivery(&cheap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight)
	if !errors.Is(err, fairex.ErrBadPayment) {
		t.Fatalf("err = %v, want ErrBadPayment", err)
	}
	if w.gw.Stats.FailedClaims != 1 {
		t.Fatalf("FailedClaims = %d, want 1", w.gw.Stats.FailedClaims)
	}
}

func TestGatewayWaitsForConfirmations(t *testing.T) {
	gwCfg := gateway.DefaultConfig()
	gwCfg.WaitConfirmations = 2
	w := newWorld(t, gwCfg, recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	offerHeight := w.chain.Height()
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}
	payment, err := w.rcpt.HandleDelivery(delivery)
	if err != nil {
		t.Fatal(err)
	}

	// Unconfirmed: the gateway refuses to reveal eSk.
	if _, err := w.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight); !errors.Is(err, gateway.ErrNotEnoughConfirmations) {
		t.Fatalf("err = %v, want ErrNotEnoughConfirmations", err)
	}
	w.mine() // 1 confirmation
	if _, err := w.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight); !errors.Is(err, gateway.ErrNotEnoughConfirmations) {
		t.Fatalf("err = %v, want ErrNotEnoughConfirmations at 1 conf", err)
	}
	w.mine() // 2 confirmations
	if _, err := w.gw.VerifyAndClaim(delivery.DevEUI, delivery.Exchange, payment.ID(), offerHeight); err != nil {
		t.Fatalf("claim at 2 confs: %v", err)
	}
}

func TestRecipientRefundsExpiredExchange(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}
	payment, err := w.rcpt.HandleDelivery(delivery)
	if err != nil {
		t.Fatal(err)
	}
	w.mine()

	// The gateway vanishes without claiming. Before expiry the refund
	// is rejected by the chain.
	if _, err := w.rcpt.Refund(payment.ID()); err == nil {
		t.Fatal("early refund accepted")
	}
	// Note: the failed Refund dropped the pending entry? It must NOT.
	if len(w.rcpt.PendingPayments()) != 1 {
		t.Fatal("failed refund dropped the pending exchange")
	}

	params, err := script.ParseKeyRelease(payment.Outputs[0].Lock)
	if err != nil {
		t.Fatal(err)
	}
	for w.chain.Height() < params.RefundHeight {
		w.mine()
	}
	if _, err := w.rcpt.Refund(payment.ID()); err != nil {
		t.Fatalf("refund after expiry: %v", err)
	}
	w.mine()
	if w.rcpt.Stats.Refunds != 1 {
		t.Fatalf("Refunds = %d, want 1", w.rcpt.Stats.Refunds)
	}
}

func TestSettleClaimBeforeClaimFails(t *testing.T) {
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())

	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	delivery, _, err := w.gw.HandleData(dataFrame)
	if err != nil {
		t.Fatal(err)
	}
	payment, err := w.rcpt.HandleDelivery(delivery)
	if err != nil {
		t.Fatal(err)
	}
	w.mine()
	if _, err := w.rcpt.SettleClaim(payment.ID()); !errors.Is(err, fairex.ErrNoClaim) {
		t.Fatalf("err = %v, want ErrNoClaim", err)
	}
}

func TestDeliveryPayloadSizes(t *testing.T) {
	// The paper's payload arithmetic: Em and Sig are 64 bytes each (the
	// 128-byte minimum), the data payload adds the 20-byte @R.
	w := newWorld(t, gateway.DefaultConfig(), recipient.DefaultConfig())
	keyResp, err := w.gw.HandleKeyRequest(w.dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := w.dev.DataFrame([]byte("21.5C"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := device.DecodeDataPayload(dataFrame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Em) != 64 || len(payload.Sig) != 64 {
		t.Fatalf("Em=%d Sig=%d, want 64/64", len(payload.Em), len(payload.Sig))
	}
	if len(dataFrame.Payload) != 148 {
		t.Fatalf("payload = %d bytes, want 148 (128 + 20-byte @R)", len(dataFrame.Payload))
	}
	// The whole frame fits a single SF7 LoRa transmission.
	if total := len(dataFrame.Encode()); total > lora.MaxPayload(lora.SF7) {
		t.Fatalf("frame %d bytes exceeds SF7 capacity", total)
	}
	if !bytes.Equal(payload.Recipient[:], func() []byte { h := w.rcpt.Wallet().PubKeyHash(); return h[:] }()) {
		t.Fatal("payload @R mismatch")
	}
}
