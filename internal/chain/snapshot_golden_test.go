package chain_test

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"sort"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

// goldenSchedule generates a seeded chain whose UTXO set is a pure
// function of the seed: every output pays one fixed hash, coinbases are
// made unique by a counter, and scripts are unchecked (VerifyScripts
// off) so inputs carry no signatures. Only block headers depend on the
// throwaway miner key, and headers never enter the set.
type goldenSchedule struct {
	t      *testing.T
	rng    *mrand.Rand
	minerW *wallet.Wallet
	owner  [20]byte
	params chain.Params
	now    time.Time
	nonce  int64
}

// signedBlock assembles and signs a block of the given transactions on
// parent; the coinbase collects reward + fees and carries the nonce.
func (s *goldenSchedule) signedBlock(parent *chain.Block, txs []*chain.Tx, fees uint64) *chain.Block {
	s.t.Helper()
	s.nonce++
	s.now = s.now.Add(15 * time.Second)
	coinbase := &chain.Tx{
		Inputs: []chain.TxIn{{
			Prev: chain.OutPoint{Index: 0xffffffff},
			Unlock: script.NewBuilder().
				AddInt64(parent.Header.Height + 1).
				AddInt64(s.nonce).Script(),
		}},
		Outputs: []chain.TxOut{{
			Value: s.params.CoinbaseReward + fees,
			Lock:  script.PayToPubKeyHash(s.owner),
		}},
	}
	all := append([]*chain.Tx{coinbase}, txs...)
	b := &chain.Block{
		Header: chain.Header{
			Version:    1,
			PrevBlock:  parent.ID(),
			MerkleRoot: chain.MerkleRoot(all),
			Time:       s.now.UnixNano(),
			Height:     parent.Header.Height + 1,
		},
		Txs: all,
	}
	if err := b.Header.Sign(s.minerW.Key(), rand.Reader); err != nil {
		s.t.Fatal(err)
	}
	return b
}

// paymentBlock builds a block of up to maxTxs transactions spending the
// owner's mature outputs from the given UTXO view, each fanning back
// out to the owner.
func (s *goldenSchedule) paymentBlock(parent *chain.Block, utxo *chain.UTXOSet, maxTxs int) *chain.Block {
	s.t.Helper()
	height := parent.Header.Height + 1
	var pool []chain.OutPoint
	for _, op := range utxo.FindByPubKeyHash(s.owner) {
		e, _ := utxo.Get(op)
		if e.Coinbase && height-e.Height < s.params.CoinbaseMaturity {
			continue
		}
		pool = append(pool, op)
	}
	// FindByPubKeyHash walks a map; fix the order before the seeded
	// shuffle so the schedule depends on the seed alone.
	sort.Slice(pool, func(i, j int) bool {
		if c := bytes.Compare(pool[i].TxID[:], pool[j].TxID[:]); c != 0 {
			return c < 0
		}
		return pool[i].Index < pool[j].Index
	})
	s.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	var txs []*chain.Tx
	var fees uint64
	for len(txs) < maxTxs && len(pool) > 0 {
		nIn := 1 + s.rng.Intn(2)
		if nIn > len(pool) {
			nIn = len(pool)
		}
		tx := &chain.Tx{Version: 1}
		var in uint64
		for j := 0; j < nIn; j++ {
			op := pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			e, _ := utxo.Get(op)
			tx.Inputs = append(tx.Inputs, chain.TxIn{Prev: op})
			in += e.Out.Value
		}
		fee := uint64(s.rng.Intn(3))
		if fee > in {
			fee = in
		}
		rest := in - fee
		nOut := 2 + s.rng.Intn(2)
		for j := 0; j < nOut; j++ {
			v := rest / uint64(nOut-j)
			tx.Outputs = append(tx.Outputs, chain.TxOut{
				Value: v,
				Lock:  script.PayToPubKeyHash(s.owner),
			})
			rest -= v
		}
		fees += fee
		txs = append(txs, tx)
	}
	return s.signedBlock(parent, txs, fees)
}

// TestSnapshotHashGolden fails if the serialized UTXO set drifts by a
// byte: a seeded 200-block chain — payment-heavy extensions, losing side
// branches and overtaking forks that disconnect payment blocks through
// their undo journals — must hash to the value pinned here, which was
// computed with the encoder as it stood before the set became one map.
// A snapshot commitment a miner has already signed stays verifiable only
// while this holds.
func TestSnapshotHashGolden(t *testing.T) {
	const (
		golden       = "8be7400847459dd143cf68a87db9e7fa2cf89977c6c5acf75f3743b955334a71"
		goldenSize   = 1168
		goldenReorgs = 51
	)
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := chain.DefaultParams()
	params.VerifyScripts = false
	params.CoinbaseMaturity = 2
	s := &goldenSchedule{
		t:      t,
		rng:    mrand.New(mrand.NewSource(2018)),
		minerW: minerW,
		owner:  [20]byte{0xbc, 0x3a, 0x17},
		params: params,
		now:    time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC),
	}
	c, err := chain.New(params, chain.GenesisBlock(map[[20]byte]uint64{s.owner: 1_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	add := func(b *chain.Block) {
		t.Helper()
		if err := c.AddBlock(b); err != nil {
			t.Fatalf("height %d: %v", b.Header.Height, err)
		}
	}

	reorgs := 0
	for c.Height() < 200 {
		tip := c.Tip()
		switch s.rng.Intn(5) {
		case 0, 1, 2:
			add(s.paymentBlock(tip, c.UTXO(), 4+s.rng.Intn(8)))
		case 3:
			// A losing side branch that only draws level with the tip.
			back := int64(1 + s.rng.Intn(2))
			if back > tip.Header.Height {
				continue
			}
			parent, _ := c.BlockAt(tip.Header.Height - back)
			for j := int64(0); j < back; j++ {
				b := s.signedBlock(parent, nil, 0)
				add(b)
				parent = b
			}
			if c.Tip() != tip {
				t.Fatal("equal-length side branch displaced the tip")
			}
		case 4:
			// An overtaking fork: depth blocks are disconnected, depth+1
			// connected, the first re-spending from the fork-point view.
			depth := int64(1 + s.rng.Intn(2))
			if depth > tip.Header.Height {
				continue
			}
			forkH := tip.Header.Height - depth
			parent, _ := c.BlockAt(forkH)
			view, err := c.StateAt(forkH)
			if err != nil {
				t.Fatal(err)
			}
			for j := int64(0); j <= depth; j++ {
				var b *chain.Block
				if j == 0 {
					b = s.paymentBlock(parent, view, 6)
				} else {
					b = s.signedBlock(parent, nil, 0)
				}
				add(b)
				parent = b
			}
			if c.Tip() != parent {
				t.Fatal("longer branch did not become best")
			}
			reorgs++
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	utxo := c.UTXO()
	got := chain.SnapshotHash(utxo.SerializeUTXO()).String()
	if got != golden || utxo.Len() != goldenSize || reorgs != goldenReorgs {
		t.Fatalf("snapshot drifted:\n  got  %s (%d entries, %d reorgs)\n  want %s (%d entries, %d reorgs)",
			got, utxo.Len(), reorgs, golden, goldenSize, goldenReorgs)
	}
}
