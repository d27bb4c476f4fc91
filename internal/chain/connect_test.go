package chain

import (
	"fmt"
	"testing"

	"bcwan/internal/script"
)

// connectFixture is a small hand-built world for connectBlockUndo: a set
// funded with three mature outputs and one immature coinbase, and a valid
// block at height 10 spending the mature ones. Blocks are synthetic — no
// header signature, VerifyScripts off — because this layer validates
// UTXO accounting only; header and script rules live above and beside it.
type connectFixture struct {
	utxo     *UTXOSet
	params   Params
	a, b, c  OutPoint // mature, worth 1000 each
	immature OutPoint // coinbase minted at height 8, maturity 5
	txs      []*Tx    // coinbase, pay1 (spends a), pay2 (spends b and c)
}

const fixtureFees = 5 // pay1 leaves 3, pay2 leaves 2

func fixtureLock(n byte) script.Script {
	return script.PayToPubKeyHash([script.HashLen]byte{n})
}

func newConnectFixture() *connectFixture {
	f := &connectFixture{utxo: NewUTXOSet(), params: DefaultParams()}
	f.params.VerifyScripts = false
	f.params.CoinbaseMaturity = 5
	fund := func(n byte, e UTXOEntry) OutPoint {
		op := OutPoint{TxID: Hash{n}, Index: uint32(n)}
		e.Out.Lock = fixtureLock(n)
		f.utxo.put(op, e)
		return op
	}
	f.a = fund(1, UTXOEntry{Out: TxOut{Value: 1000}, Height: 1})
	f.b = fund(2, UTXOEntry{Out: TxOut{Value: 1000}, Height: 1})
	f.c = fund(3, UTXOEntry{Out: TxOut{Value: 1000}, Height: 1})
	f.immature = fund(4, UTXOEntry{Out: TxOut{Value: 50}, Height: 8, Coinbase: true})
	f.txs = []*Tx{
		{
			Inputs: []TxIn{{
				Prev:   OutPoint{Index: coinbaseIndex},
				Unlock: script.NewBuilder().AddInt64(10).Script(),
			}},
			Outputs: []TxOut{{Value: f.params.CoinbaseReward + fixtureFees, Lock: fixtureLock(10)}},
		},
		{
			Version: 1,
			Inputs:  []TxIn{{Prev: f.a}},
			Outputs: []TxOut{{Value: 600, Lock: fixtureLock(11)}, {Value: 397, Lock: fixtureLock(12)}},
		},
		{
			Version: 1,
			Inputs:  []TxIn{{Prev: f.b}, {Prev: f.c}},
			Outputs: []TxOut{{Value: 1998, Lock: fixtureLock(13)}},
		},
	}
	return f
}

// block assembles the fixture's transactions as they stand, so a case
// edits f.txs first and the merkle root follows.
func (f *connectFixture) block() *Block {
	return &Block{
		Header: Header{Version: 1, Height: 10, MerkleRoot: MerkleRoot(f.txs)},
		Txs:    f.txs,
	}
}

func (f *connectFixture) connect() error {
	_, err := connectBlockUndo(f.utxo, f.block(), f.params, nil)
	return err
}

// TestConnectBlockDefects pins, for every defect class the one
// block-connect path can meet, the exact error text and that the failed
// operation leaves the set as it found it. Each case corrupts the
// fixture's block or set and returns the operation to run with the error
// it must report; "" means success.
func TestConnectBlockDefects(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(f *connectFixture) (op func() error, want string)
	}{
		{"valid block", func(f *connectFixture) (func() error, string) {
			return f.connect, ""
		}},
		{"in-block double spend", func(f *connectFixture) (func() error, string) {
			f.txs[2].Inputs[0].Prev = f.a
			return f.connect, fmt.Sprintf("tx 2 (%s): chain: referenced output missing or spent: %s",
				f.txs[2].ID(), f.a)
		}},
		{"immature coinbase spend", func(f *connectFixture) (func() error, string) {
			f.txs[1].Inputs[0].Prev = f.immature
			return f.connect, fmt.Sprintf("tx 1 (%s): chain: coinbase spent before maturity: %s at height 8, spend at 10",
				f.txs[1].ID(), f.immature)
		}},
		{"value shortfall", func(f *connectFixture) (func() error, string) {
			f.txs[2].Outputs[0].Value += 10_000
			return f.connect, fmt.Sprintf("tx 2 (%s): chain: inputs worth less than outputs: in 2000, out 11998",
				f.txs[2].ID())
		}},
		{"excess subsidy", func(f *connectFixture) (func() error, string) {
			f.txs[0].Outputs[0].Value++
			return f.connect, fmt.Sprintf("chain: coinbase pays more than reward plus fees: pays %d, allowed %d",
				f.params.CoinbaseReward+fixtureFees+1, f.params.CoinbaseReward+fixtureFees)
		}},
		{"duplicate create", func(f *connectFixture) (func() error, string) {
			// Honest blocks cannot produce this (output IDs hash the
			// transaction), so plant pay2's first output in the set
			// before the block creates it.
			clash := OutPoint{TxID: f.txs[2].ID(), Index: 0}
			f.utxo.put(clash, UTXOEntry{Out: TxOut{Value: 1}, Height: 1})
			return f.connect, fmt.Sprintf("tx 2 (%s): chain: duplicate outpoint: %s", f.txs[2].ID(), clash)
		}},
		{"undo with created outpoint gone", func(f *connectFixture) (func() error, string) {
			undo, err := connectBlockUndo(f.utxo, f.block(), f.params, nil)
			if err != nil {
				t.Fatal(err)
			}
			// UndoBlock walks the block tip-first, so the last
			// transaction's first created outpoint is checked before
			// anything is touched.
			victim := undo.Txs[2].Created[0]
			f.utxo.remove(victim, f.utxo.entries[victim])
			return func() error { return f.utxo.UndoBlock(undo) },
				fmt.Sprintf("chain: undo: created outpoint %s missing", victim)
		}},
		{"undo with spent outpoint back", func(f *connectFixture) (func() error, string) {
			undo, err := connectBlockUndo(f.utxo, f.block(), f.params, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Journal a spend whose outpoint is still in the set.
			stale := undo.Txs[0].Created[0]
			e, _ := f.utxo.Get(stale)
			bad := &BlockUndo{Txs: []*TxUndo{{Spent: []SpentOutput{{Prev: stale, Entry: e}}}}}
			return func() error { return f.utxo.UndoBlock(bad) },
				fmt.Sprintf("chain: undo: spent outpoint %s already present", stale)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newConnectFixture()
			op, want := tc.prepare(f)
			before := f.utxo.Clone()
			err := op()
			if want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if f.utxo.Equal(before) {
					t.Fatal("successful connect left the set unchanged")
				}
				return
			}
			if err == nil || err.Error() != want {
				t.Fatalf("error text:\n  got:  %v\n  want: %s", err, want)
			}
			if !f.utxo.Equal(before) {
				t.Fatal("failed operation mutated the set")
			}
		})
	}
}
