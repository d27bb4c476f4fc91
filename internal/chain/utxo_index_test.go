package chain

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"sort"
	"testing"

	"bcwan/internal/script"
)

// scanByPubKeyHash is the reference the index replaced: a walk of every
// entry.
func scanByPubKeyHash(u *UTXOSet, hash [script.HashLen]byte) []OutPoint {
	var out []OutPoint
	for op, e := range u.entries {
		if h, err := script.ExtractP2PKHHash(e.Out.Lock); err == nil && h == hash {
			out = append(out, op)
		}
	}
	return out
}

func sortOutPoints(ops []OutPoint) []OutPoint {
	sort.Slice(ops, func(i, j int) bool { return outpointLess(ops[i], ops[j]) })
	return ops
}

// checkIndexAgainstScan compares lookup and scan for every hash of the
// universe plus one that never appears.
func checkIndexAgainstScan(t *testing.T, what string, u *UTXOSet, hashes [][script.HashLen]byte) {
	t.Helper()
	if err := u.checkIndex(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, h := range append(hashes, [script.HashLen]byte{0xee}) {
		got, want := sortOutPoints(u.FindByPubKeyHash(h)), sortOutPoints(scanByPubKeyHash(u, h))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: hash %x: index finds %v, scan finds %v", what, h[:2], got, want)
		}
		var sum uint64
		for _, op := range want {
			sum += u.entries[op].Out.Value
		}
		if bal := u.BalanceOf(h); bal != sum {
			t.Fatalf("%s: hash %x: BalanceOf = %d, scan sums %d", what, h[:2], bal, sum)
		}
	}
}

// TestPubKeyHashIndexMatchesScan drives seeded random sequences of block
// connects, failed connects, disconnects, reorgs (disconnect some,
// connect others) and serialize round trips over outputs of every lock
// kind, and after each step requires FindByPubKeyHash and BalanceOf to
// agree with a full scan — on the set itself and on a Clone of it.
func TestPubKeyHashIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := mrand.New(mrand.NewSource(seed))
			hashes := make([][script.HashLen]byte, 4)
			for i := range hashes {
				rng.Read(hashes[i][:])
			}
			// randomLock draws from every template the set can hold, most
			// of them naming a universe hash somewhere other than a P2PKH
			// destination.
			randomLock := func() script.Script {
				h := hashes[rng.Intn(len(hashes))]
				switch rng.Intn(8) {
				case 0:
					return script.NullData([]byte("binding"))
				case 1:
					return script.KeyRelease(script.KeyReleaseParams{
						RSAPubKey:         make([]byte, 72),
						GatewayPubKeyHash: h,
						RefundHeight:      100,
						BuyerPubKeyHash:   hashes[0],
					})
				case 2:
					// P2PKH spelled with an explicit length byte: still the
					// template, not the canonical bytes.
					lock := script.Script{byte(script.OpDup), byte(script.OpHash160), byte(script.OpPushData1), script.HashLen}
					lock = append(lock, h[:]...)
					return append(lock, byte(script.OpEqualVerify), byte(script.OpCheckSig))
				default:
					return script.PayToPubKeyHash(h)
				}
			}

			u := NewUTXOSet()
			var journals []*BlockUndo
			var unspent []OutPoint // may hold spent outpoints; filtered on use
			nonce := int32(0)
			randomBlock := func() []*Tx {
				var txs []*Tx
				for n := 1 + rng.Intn(4); n > 0; n-- {
					nonce++
					tx := &Tx{Version: nonce}
					if len(txs) == 0 {
						tx.Inputs = []TxIn{{Prev: OutPoint{Index: coinbaseIndex}}}
					} else {
						for k := 1 + rng.Intn(2); k > 0 && len(unspent) > 0; k-- {
							i := rng.Intn(len(unspent))
							op := unspent[i]
							unspent = append(unspent[:i], unspent[i+1:]...)
							if _, ok := u.Get(op); ok {
								tx.Inputs = append(tx.Inputs, TxIn{Prev: op})
							}
						}
						if len(tx.Inputs) == 0 {
							continue
						}
					}
					for k := 1 + rng.Intn(3); k > 0; k-- {
						tx.Outputs = append(tx.Outputs, TxOut{Value: uint64(1 + rng.Intn(1000)), Lock: randomLock()})
					}
					txs = append(txs, tx)
				}
				return txs
			}
			connect := func(txs []*Tx, height int64) {
				undo := &BlockUndo{}
				for _, tx := range txs {
					txUndo, err := u.ApplyTxUndo(tx, height)
					if err != nil {
						// A later tx of the block spent this one's input
						// first; the set must be untouched by the failure.
						continue
					}
					undo.Txs = append(undo.Txs, txUndo)
					unspent = append(unspent, txUndo.Created...)
				}
				journals = append(journals, undo)
			}
			disconnect := func() {
				last := journals[len(journals)-1]
				journals = journals[:len(journals)-1]
				if err := u.UndoBlock(last); err != nil {
					t.Fatal(err)
				}
				for _, txUndo := range last.Txs {
					for _, s := range txUndo.Spent {
						unspent = append(unspent, s.Prev)
					}
				}
			}

			for step := 0; step < 120; step++ {
				what := fmt.Sprintf("step %d", step)
				switch r := rng.Intn(10); {
				case r < 5:
					connect(randomBlock(), int64(len(journals)+1))
				case r == 5 && len(unspent) > 0:
					// A spend of a missing output between two live ones:
					// ApplyTxUndo must roll its partial work back.
					nonce++
					bad := &Tx{Version: nonce, Outputs: []TxOut{{Value: 1, Lock: randomLock()}}}
					for _, op := range unspent {
						if _, ok := u.Get(op); ok {
							bad.Inputs = append(bad.Inputs, TxIn{Prev: op})
							break
						}
					}
					bad.Inputs = append(bad.Inputs, TxIn{Prev: OutPoint{TxID: Hash{0xbd}, Index: uint32(nonce)}})
					before, digest := u.SerializeUTXO(), u.Digest()
					if _, err := u.ApplyTxUndo(bad, 1); err == nil {
						t.Fatalf("%s: spend of a missing output applied", what)
					}
					if !bytes.Equal(before, u.SerializeUTXO()) || digest != u.Digest() {
						t.Fatalf("%s: failed apply changed the set", what)
					}
				case r == 6 && len(journals) > 0:
					disconnect()
				case r == 7 && len(journals) > 0:
					// Reorg: disconnect up to three blocks, connect one more.
					depth := 1 + rng.Intn(3)
					if depth > len(journals) {
						depth = len(journals)
					}
					for i := 0; i < depth; i++ {
						disconnect()
					}
					for i := 0; i <= depth; i++ {
						connect(randomBlock(), int64(len(journals)+1))
					}
				case r == 8:
					restored, err := DeserializeUTXO(bytes.NewReader(u.SerializeUTXO()))
					if err != nil {
						t.Fatal(err)
					}
					if !restored.Equal(u) {
						t.Fatalf("%s: serialize round trip changed the set", what)
					}
					checkIndexAgainstScan(t, what+" (deserialized)", restored, hashes)
				default:
					// The non-journaling apply the replay and mempool views use.
					for _, tx := range randomBlock() {
						if err := u.Clone().ApplyTx(tx, 1); err == nil {
							if err := u.ApplyTx(tx, 1); err != nil {
								t.Fatal(err)
							}
							journals = nil // no journal covers this mutation
						}
					}
				}
				checkIndexAgainstScan(t, what, u, hashes)
				clone := u.Clone()
				checkIndexAgainstScan(t, what+" (clone)", clone, hashes)
				// The clone's index is its own: mutating it leaves u's alone.
				for _, op := range clone.FindByPubKeyHash(hashes[0]) {
					clone.remove(op, clone.entries[op])
				}
				checkIndexAgainstScan(t, what+" (after mutating a clone)", u, hashes)
			}
			if u.Len() == 0 {
				t.Fatal("the walk left an empty set: it exercised nothing")
			}
		})
	}
}

// maxAllocsApplyUndoKeyRelease bounds the heap allocations of one
// ApplyTxUndo plus UndoTx of a key-release payment: the undo journal,
// the growth of its spent and created slices and the pubkey-hash index
// appends. The template checks on every spent and created output
// allocate nothing.
const maxAllocsApplyUndoKeyRelease = 6

// TestApplyUndoKeyReleaseAllocs is the tripwire for the UTXO set's
// per-output template checks allocating again.
func TestApplyUndoKeyReleaseAllocs(t *testing.T) {
	var buyer, gateway [script.HashLen]byte
	buyer[0], gateway[0] = 1, 2
	u := NewUTXOSet()
	funding := OutPoint{TxID: Hash{0xf0}, Index: 0}
	u.put(funding, UTXOEntry{Out: TxOut{Value: 1000, Lock: script.PayToPubKeyHash(buyer)}, Height: 1})
	payment := &Tx{
		Version: 1,
		Inputs:  []TxIn{{Prev: funding, Unlock: script.UnlockP2PKH(make([]byte, 71), make([]byte, 33))}},
		Outputs: []TxOut{
			{Value: 500, Lock: script.KeyRelease(script.KeyReleaseParams{
				RSAPubKey: make([]byte, 72), GatewayPubKeyHash: gateway, RefundHeight: 110, BuyerPubKeyHash: buyer,
			})},
			{Value: 490, Lock: script.PayToPubKeyHash(buyer)},
		},
	}
	payment.ID() // memoized before measuring, as on the connect path
	allocs := testing.AllocsPerRun(100, func() {
		undo, err := u.ApplyTxUndo(payment, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.UndoTx(undo); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocsApplyUndoKeyRelease {
		t.Fatalf("%v allocations per ApplyTxUndo+UndoTx, ceiling %d", allocs, maxAllocsApplyUndoKeyRelease)
	}
}
