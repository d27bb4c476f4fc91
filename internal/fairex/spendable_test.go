package fairex

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sort"
	"testing"

	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// sameCoinsAndSelection requires Spendable(w) to stand in for UTXO()
// wherever a wallet builds from it: the same coins with the same
// entries, nothing else in the set, and a payment of the given amount
// built from either spending the same inputs into the same outputs.
func sameCoinsAndSelection(t *testing.T, f *nodeFixture, w *wallet.Wallet, amount uint64) {
	t.Helper()
	hash := w.PubKeyHash()
	full, own := f.node.UTXO(), f.node.Spendable(hash)

	sorted := func(u *chain.UTXOSet) []chain.OutPoint {
		ops := u.FindByPubKeyHash(hash)
		sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
		return ops
	}
	want, got := sorted(full), sorted(own)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Spendable holds %v, UTXO() finds %v", got, want)
	}
	if own.Len() != len(want) {
		t.Fatalf("Spendable holds %d entries for %d coins", own.Len(), len(want))
	}
	for _, op := range want {
		a, _ := full.Get(op)
		b, _ := own.Get(op)
		if a.Out.Value != b.Out.Value || !bytes.Equal(a.Out.Lock, b.Out.Lock) || a.Height != b.Height || a.Coinbase != b.Coinbase {
			t.Fatalf("entry %s differs: %+v vs %+v", op, a, b)
		}
	}
	if a, b := w.Balance(full), w.Balance(own); a != b {
		t.Fatalf("balance %d from UTXO(), %d from Spendable", a, b)
	}

	dest := [script.HashLen]byte{0xd0}
	fromFull, errFull := w.BuildPayment(full, dest, amount, 1)
	fromOwn, errOwn := w.BuildPayment(own, dest, amount, 1)
	if (errFull == nil) != (errOwn == nil) {
		t.Fatalf("build from UTXO(): %v; from Spendable: %v", errFull, errOwn)
	}
	if errFull != nil {
		return
	}
	if len(fromFull.Inputs) != len(fromOwn.Inputs) || len(fromFull.Outputs) != len(fromOwn.Outputs) {
		t.Fatalf("payment shapes differ: %d→%d vs %d→%d",
			len(fromFull.Inputs), len(fromFull.Outputs), len(fromOwn.Inputs), len(fromOwn.Outputs))
	}
	for i := range fromFull.Inputs {
		if fromFull.Inputs[i].Prev != fromOwn.Inputs[i].Prev {
			t.Fatalf("input %d: %s from UTXO(), %s from Spendable", i, fromFull.Inputs[i].Prev, fromOwn.Inputs[i].Prev)
		}
	}
	for i := range fromFull.Outputs {
		if fromFull.Outputs[i].Value != fromOwn.Outputs[i].Value || !bytes.Equal(fromFull.Outputs[i].Lock, fromOwn.Outputs[i].Lock) {
			t.Fatalf("output %d differs", i)
		}
	}
	// What the view offers, the pool admits.
	if err := f.node.Submit(fromOwn); err != nil {
		t.Fatalf("payment built from Spendable refused: %v", err)
	}
}

// pay builds from UTXO() — the path Spendable is compared against — and
// submits.
func (f *nodeFixture) pay(t *testing.T, from *wallet.Wallet, to [script.HashLen]byte, amount uint64) *chain.Tx {
	t.Helper()
	tx, err := from.BuildPayment(f.node.UTXO(), to, amount, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(tx); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestSpendableSelectsWhatUTXODoes(t *testing.T) {
	cases := []struct {
		name string
		// arrange leaves chain and pool in the state under test and
		// returns the wallets to compare.
		arrange func(t *testing.T, f *nodeFixture) []*wallet.Wallet
	}{
		{"confirmed coins only", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			f.pay(t, f.buyer, f.buyer.PubKeyHash(), 30_000)
			f.pay(t, f.buyer, f.gw.PubKeyHash(), 5_000)
			f.mine(t)
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
		{"unconfirmed change chained three deep", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			for i := 0; i < 3; i++ {
				f.pay(t, f.buyer, f.gw.PubKeyHash(), 1_000)
			}
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
		{"pooled spend of a confirmed coin", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			f.pay(t, f.buyer, f.buyer.PubKeyHash(), 30_000)
			f.mine(t)
			// Exactly one of the two confirmed coins, no change: 29 999 + fee.
			f.pay(t, f.buyer, f.gw.PubKeyHash(), 29_999)
			if n := len(f.node.Spendable(f.buyer.PubKeyHash()).FindByPubKeyHash(f.buyer.PubKeyHash())); n != 1 {
				t.Fatalf("buyer has %d coins left, want the 1 the pool does not claim", n)
			}
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
		{"pooled tx spending one own and one foreign coin with change", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			f.pay(t, f.buyer, f.gw.PubKeyHash(), 5_000)
			f.mine(t)
			confirmed := f.node.Chain.UTXO()
			mine, theirs := confirmed.FindByPubKeyHash(f.buyer.PubKeyHash())[0], confirmed.FindByPubKeyHash(f.gw.PubKeyHash())[0]
			a, _ := confirmed.Get(mine)
			b, _ := confirmed.Get(theirs)
			joint := &chain.Tx{
				Version: 1,
				Inputs:  []chain.TxIn{{Prev: mine}, {Prev: theirs}},
				Outputs: []chain.TxOut{
					{Value: 2_000, Lock: script.PayToPubKeyHash([script.HashLen]byte{0xd1})},
					{Value: a.Out.Value + b.Out.Value - 2_001, Lock: script.PayToPubKeyHash(f.buyer.PubKeyHash())},
				},
			}
			for i, signer := range []*wallet.Wallet{f.buyer, f.gw} {
				lock := []script.Script{a.Out.Lock, b.Out.Lock}[i]
				digest := joint.SigHash(i, lock)
				sig, err := signer.Key().SignDigest(rand.Reader, digest[:])
				if err != nil {
					t.Fatal(err)
				}
				joint.Inputs[i].Unlock = script.UnlockP2PKH(sig, signer.PublicBytes())
			}
			if err := f.node.Submit(joint); err != nil {
				t.Fatal(err)
			}
			if n := f.node.Spendable(f.gw.PubKeyHash()).Len(); n != 0 {
				t.Fatalf("gateway still has %d coins after the joint spend", n)
			}
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
		{"stale pooled tx whose input a block already spent", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			f.pay(t, f.buyer, f.buyer.PubKeyHash(), 30_000)
			f.mine(t)
			confirmed := f.node.Chain.UTXO()
			// The block's version of the spend comes from another pool;
			// this node's pool keeps its own, now unconnectable.
			rival, err := f.buyer.BuildPayment(confirmed, [script.HashLen]byte{0xd2}, 100, 2)
			if err != nil {
				t.Fatal(err)
			}
			stale := f.pay(t, f.buyer, f.gw.PubKeyHash(), 100)
			if stale.Inputs[0].Prev != rival.Inputs[0].Prev {
				t.Fatal("fixture: the two spends do not conflict")
			}
			otherPool := chain.NewMempool()
			if err := otherPool.Accept(rival, confirmed, f.node.Chain.Height(), f.node.Chain.Params()); err != nil {
				t.Fatal(err)
			}
			f.now = f.now.Add(f.node.Chain.Params().BlockInterval)
			if _, err := chain.NewMiner(f.minerW.Key(), f.node.Chain, otherPool, rand.Reader).Mine(f.now); err != nil {
				t.Fatal(err)
			}
			if !f.node.Pool.Contains(stale.ID()) {
				t.Fatal("fixture: the stale spend left the pool")
			}
			if n := f.node.Spendable(f.gw.PubKeyHash()).Len(); n != 0 {
				t.Fatalf("the stale spend's output shows as %d gateway coins", n)
			}
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
		{"outputs that name a hash without paying it", func(t *testing.T, f *nodeFixture) []*wallet.Wallet {
			kr := script.KeyReleaseParams{
				RSAPubKey:         make([]byte, 72),
				GatewayPubKeyHash: f.gw.PubKeyHash(),
				RefundHeight:      100,
				BuyerPubKeyHash:   f.buyer.PubKeyHash(),
			}
			ch := script.ChannelParams{
				GatewayPubKey:    f.gw.PublicBytes(),
				RecipientPubKey:  f.buyer.PublicBytes(),
				RefundHeight:     100,
				FunderPubKeyHash: f.buyer.PubKeyHash(),
			}
			// One of each confirmed, one of each pooled.
			for round := 0; round < 2; round++ {
				for _, build := range []func(*chain.UTXOSet) (*chain.Tx, error){
					func(u *chain.UTXOSet) (*chain.Tx, error) { return f.buyer.BuildKeyReleasePayment(u, kr, 100, 1) },
					func(u *chain.UTXOSet) (*chain.Tx, error) { return f.buyer.BuildChannelFunding(u, ch, 1_000, 1) },
					func(u *chain.UTXOSet) (*chain.Tx, error) { return f.buyer.BuildDataPublish(u, []byte("binding"), 1) },
				} {
					tx, err := build(f.node.UTXO())
					if err != nil {
						t.Fatal(err)
					}
					if err := f.node.Submit(tx); err != nil {
						t.Fatal(err)
					}
				}
				if round == 0 {
					f.mine(t)
				}
			}
			if n := f.node.Spendable(f.gw.PubKeyHash()).Len(); n != 0 {
				t.Fatalf("key-release and channel outputs show as %d gateway coins", n)
			}
			return []*wallet.Wallet{f.buyer, f.gw}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newNodeFixture(t)
			for _, w := range tc.arrange(t, f) {
				sameCoinsAndSelection(t, f, w, 500)
			}
		})
	}
}
