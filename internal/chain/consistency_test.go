package chain

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
)

// consistencyFixture builds an 8-block chain, each block carrying one
// payment that spends the previous block's, and prunes it below height
// 4 when pruned is set. It returns the chain and its blocks as mined,
// bodies included.
func consistencyFixture(t *testing.T, pruned bool) (*Chain, []*Block) {
	t.Helper()
	key, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.VerifyScripts = false
	genesis := GenesisBlock(map[[20]byte]uint64{{1}: 1_000_000})
	c, err := New(params, genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(key.PublicBytes())
	pool := NewMempool()
	miner := NewMiner(key, c, pool, rand.Reader)
	blocks := []*Block{genesis}
	prev, value := OutPoint{TxID: genesis.Txs[0].ID()}, uint64(1_000_000)
	now := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	for h := 1; h <= 8; h++ {
		value--
		tx := &Tx{Version: 1, Inputs: []TxIn{{Prev: prev}}, Outputs: []TxOut{{Value: value, Lock: fixtureLock(byte(h))}}}
		if err := pool.Accept(tx, c.UTXO(), c.Height(), params); err != nil {
			t.Fatal(err)
		}
		now = now.Add(params.BlockInterval)
		b, err := miner.Mine(now)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		prev = OutPoint{TxID: tx.ID()}
	}
	if pruned {
		if err := c.PruneBelow(4); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("intact chain: %v", err)
	}
	return c, blocks
}

// TestCheckConsistencyRejects corrupts one piece of chain state per row,
// on an unpruned chain and on one pruned below height 4, and requires
// CheckConsistency to report it. An entry added to the live set of a
// pruned chain is not a row: no journal above the base touches it, so
// the unwind/re-apply round trip carries it through unchanged, and no
// genesis set is left to compare the unwound set with.
func TestCheckConsistencyRejects(t *testing.T) {
	rows := []struct {
		name     string
		unpruned bool
		pruned   bool
		corrupt  func(c *Chain, blocks []*Block)
	}{
		{"missing live entry", true, true, func(c *Chain, blocks []*Block) {
			op := OutPoint{TxID: blocks[8].Txs[0].ID()}
			c.utxo.remove(op, c.utxo.entries[op])
		}},
		{"missing txIndex entry", true, true, func(c *Chain, blocks []*Block) {
			delete(c.txIndex, blocks[8].Txs[1].ID())
		}},
		{"missing spenders entry", true, true, func(c *Chain, blocks []*Block) {
			delete(c.spenders, blocks[8].Txs[1].Inputs[0].Prev)
		}},
		{"missing undo journal", true, true, func(c *Chain, blocks []*Block) {
			delete(c.undo, blocks[8].ID())
		}},
		{"emptied tip journal", true, true, func(c *Chain, blocks []*Block) {
			c.undo[blocks[8].ID()] = &BlockUndo{}
		}},
		{"extra live entry", true, false, func(c *Chain, blocks []*Block) {
			c.utxo.put(OutPoint{TxID: Hash{0xee}}, UTXOEntry{Out: TxOut{Value: 1, Lock: fixtureLock(0xee)}, Height: 3})
		}},
		{"body at a pruned height", false, true, func(c *Chain, blocks []*Block) {
			c.best[2] = blocks[2]
		}},
	}
	for _, row := range rows {
		for _, pruned := range []bool{false, true} {
			if (pruned && !row.pruned) || (!pruned && !row.unpruned) {
				continue
			}
			name := row.name + "/unpruned"
			if pruned {
				name = row.name + "/pruned"
			}
			t.Run(name, func(t *testing.T) {
				c, blocks := consistencyFixture(t, pruned)
				row.corrupt(c, blocks)
				if err := c.CheckConsistency(); !errors.Is(err, ErrInconsistentState) {
					t.Fatalf("err = %v, want ErrInconsistentState", err)
				}
			})
		}
	}
}
