package wallet

import (
	"crypto/rand"
	"errors"
	"testing"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/script"
)

func fundedWallet(t *testing.T, amounts ...uint64) (*Wallet, *chain.UTXOSet) {
	t.Helper()
	w, err := New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	utxo := chain.NewUTXOSet()
	for i, amt := range amounts {
		tx := &chain.Tx{
			Version: int32(i + 1), // distinct IDs
			Inputs:  []chain.TxIn{{Prev: chain.OutPoint{TxID: chain.Hash{byte(i + 1)}, Index: 0}, Unlock: script.Script{byte(i + 1)}}},
			Outputs: []chain.TxOut{{Value: amt, Lock: script.PayToPubKeyHash(w.PubKeyHash())}},
		}
		// Inject directly: simulate a confirmed funding tx. ApplyTx
		// requires the inputs to exist, so bypass via a coinbase shape.
		fund := &chain.Tx{
			Version: tx.Version,
			Inputs:  []chain.TxIn{{Prev: chain.OutPoint{Index: 0xffffffff}, Unlock: script.NewBuilder().AddInt64(int64(i + 1)).Script()}},
			Outputs: tx.Outputs,
		}
		if err := utxo.ApplyTx(fund, 0); err != nil {
			t.Fatal(err)
		}
	}
	return w, utxo
}

func TestBalance(t *testing.T) {
	w, utxo := fundedWallet(t, 100, 250)
	if got := w.Balance(utxo); got != 350 {
		t.Fatalf("balance = %d, want 350", got)
	}
}

func TestBuildPaymentAddsChange(t *testing.T) {
	w, utxo := fundedWallet(t, 1000)
	to := bccrypto.Hash160([]byte("dest"))
	tx, err := w.BuildPayment(utxo, to, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Outputs) != 2 {
		t.Fatalf("outputs = %d, want payment + change", len(tx.Outputs))
	}
	if tx.Outputs[0].Value != 300 {
		t.Fatalf("payment value = %d", tx.Outputs[0].Value)
	}
	if tx.Outputs[1].Value != 690 {
		t.Fatalf("change value = %d, want 690", tx.Outputs[1].Value)
	}
	changeHash, err := script.ExtractP2PKHHash(tx.Outputs[1].Lock)
	if err != nil || changeHash != w.PubKeyHash() {
		t.Fatal("change does not pay the wallet")
	}
}

func TestBuildPaymentExactNoChange(t *testing.T) {
	w, utxo := fundedWallet(t, 310)
	to := bccrypto.Hash160([]byte("dest"))
	tx, err := w.BuildPayment(utxo, to, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Outputs) != 1 {
		t.Fatalf("outputs = %d, want 1 (no change)", len(tx.Outputs))
	}
}

func TestBuildPaymentMultiInput(t *testing.T) {
	w, utxo := fundedWallet(t, 100, 100, 100)
	to := bccrypto.Hash160([]byte("dest"))
	tx, err := w.BuildPayment(utxo, to, 250, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Inputs) != 3 {
		t.Fatalf("inputs = %d, want 3", len(tx.Inputs))
	}
	// All inputs must carry valid signatures.
	for i, in := range tx.Inputs {
		entry, ok := utxo.Get(in.Prev)
		if !ok {
			t.Fatalf("input %d outpoint missing", i)
		}
		if err := tx.VerifyInput(i, entry.Out.Lock); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

func TestBuildPaymentInsufficient(t *testing.T) {
	w, utxo := fundedWallet(t, 100)
	to := bccrypto.Hash160([]byte("dest"))
	if _, err := w.BuildPayment(utxo, to, 300, 10); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
}

func TestBuildDataPublish(t *testing.T) {
	w, utxo := fundedWallet(t, 100)
	payload := []byte("R=xyz;ip=192.0.2.4:7000")
	tx, err := w.BuildDataPublish(utxo, payload, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := script.ExtractNullData(tx.Outputs[0].Lock)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	if tx.Outputs[0].Value != 0 {
		t.Fatalf("OP_RETURN output value = %d, want 0", tx.Outputs[0].Value)
	}
}

func TestBuildClaimRejectsDustOutput(t *testing.T) {
	w, _ := fundedWallet(t)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prevOut := chain.TxOut{Value: 3, Lock: script.Script{0x51}}
	if _, err := w.BuildClaim(chain.OutPoint{}, prevOut, eKey, 5); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v, want ErrInsufficientFunds", err)
	}
	if _, err := w.BuildRefund(chain.OutPoint{}, prevOut, 10, 5); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("refund err = %v, want ErrInsufficientFunds", err)
	}
}

func TestCoinSelectionDeterministic(t *testing.T) {
	w, utxo := fundedWallet(t, 100, 200, 300)
	to := bccrypto.Hash160([]byte("dest"))
	tx1, err := w.BuildPayment(utxo, to, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := w.BuildPayment(utxo, to, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx1.Inputs) != len(tx2.Inputs) {
		t.Fatal("coin selection not deterministic")
	}
	for i := range tx1.Inputs {
		if tx1.Inputs[i].Prev != tx2.Inputs[i].Prev {
			t.Fatal("coin selection order not deterministic")
		}
	}
}

func TestAddressStable(t *testing.T) {
	w, _ := fundedWallet(t)
	if w.Address() != w.Address() {
		t.Fatal("address not stable")
	}
	if _, err := bccrypto.PubKeyHashFromAddress(w.Address()); err != nil {
		t.Fatalf("address not parseable: %v", err)
	}
}

func TestBuildKeyReleasePayment(t *testing.T) {
	w, utxo := fundedWallet(t, 1000)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: bccrypto.Hash160([]byte("gw")),
		RefundHeight:      150,
		BuyerPubKeyHash:   w.PubKeyHash(),
	}
	tx, err := w.BuildKeyReleasePayment(utxo, params, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if script.Classify(tx.Outputs[0].Lock) != script.ClassKeyRelease {
		t.Fatal("output 0 is not a key-release script")
	}
	back, err := script.ParseKeyRelease(tx.Outputs[0].Lock)
	if err != nil || back.RefundHeight != 150 {
		t.Fatalf("parsed params = %+v, %v", back, err)
	}
	// Signed and spendable.
	for i, in := range tx.Inputs {
		entry, _ := utxo.Get(in.Prev)
		if err := tx.VerifyInput(i, entry.Out.Lock); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
}

func TestBuildClaimAndRefundScripts(t *testing.T) {
	w, utxo := fundedWallet(t, 1000)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: w.PubKeyHash(), // this wallet plays the gateway
		RefundHeight:      150,
		BuyerPubKeyHash:   w.PubKeyHash(), // and the buyer
	}
	payment, err := w.BuildKeyReleasePayment(utxo, params, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := chain.OutPoint{TxID: payment.ID(), Index: 0}

	claim, err := w.BuildClaim(op, payment.Outputs[0], eKey, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := claim.VerifyInput(0, payment.Outputs[0].Lock); err != nil {
		t.Fatalf("claim script: %v", err)
	}
	if claim.Outputs[0].Value != 295 {
		t.Fatalf("claim value = %d, want 295", claim.Outputs[0].Value)
	}

	refund, err := w.BuildRefund(op, payment.Outputs[0], 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if refund.LockTime != 150 {
		t.Fatalf("refund lock time = %d, want 150", refund.LockTime)
	}
	if err := refund.VerifyInput(0, payment.Outputs[0].Lock); err != nil {
		t.Fatalf("refund script: %v", err)
	}
}

func TestSignP2PKHInputsMissingOutpoint(t *testing.T) {
	w, utxo := fundedWallet(t, 100)
	tx := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: chain.OutPoint{TxID: chain.Hash{0xff}, Index: 0}}},
		Outputs: []chain.TxOut{{Value: 1, Lock: script.PayToPubKeyHash(w.PubKeyHash())}},
	}
	if err := w.SignP2PKHInputs(tx, utxo); err == nil {
		t.Fatal("signing against missing outpoint succeeded")
	}
}
