package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"bcwan/internal/bccrypto"
	"bcwan/internal/script"
)

func sampleTx() *Tx {
	return &Tx{
		Version: 1,
		Inputs: []TxIn{
			{
				Prev:   OutPoint{TxID: Hash{0x01, 0x02}, Index: 3},
				Unlock: script.NewBuilder().AddData([]byte("sig")).AddData([]byte("pub")).Script(),
			},
		},
		Outputs: []TxOut{
			{Value: 1000, Lock: script.PayToPubKeyHash([20]byte{0xaa})},
			{Value: 0, Lock: script.NullData([]byte("ip=192.0.2.1:7000"))},
		},
		LockTime: 42,
	}
}

func TestTxSerializeRoundTrip(t *testing.T) {
	tx := sampleTx()
	data := tx.Serialize()
	back, err := DeserializeTx(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Serialize(), data) {
		t.Fatal("round trip changed serialization")
	}
	if back.ID() != tx.ID() {
		t.Fatal("round trip changed ID")
	}
	if back.LockTime != 42 || back.Version != 1 {
		t.Fatalf("fields lost: %+v", back)
	}
}

func TestTxSerializeRoundTripQuick(t *testing.T) {
	f := func(value uint64, lockTime int64, unlock, lock []byte, idx uint32, seed [32]byte) bool {
		if len(unlock) > 500 {
			unlock = unlock[:500]
		}
		if len(lock) > 500 {
			lock = lock[:500]
		}
		tx := &Tx{
			Version:  2,
			Inputs:   []TxIn{{Prev: OutPoint{TxID: Hash(seed), Index: idx}, Unlock: unlock}},
			Outputs:  []TxOut{{Value: value % maxMoney, Lock: lock}},
			LockTime: lockTime,
		}
		back, err := DeserializeTx(tx.Serialize())
		return err == nil && back.ID() == tx.ID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeserializeTxRejects(t *testing.T) {
	good := sampleTx().Serialize()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0x00),
		"too large": make([]byte, maxTxSize+1),
	}
	for name, data := range cases {
		if _, err := DeserializeTx(data); err == nil {
			t.Errorf("%s: invalid encoding accepted", name)
		}
	}
}

func TestTxIDUniqueness(t *testing.T) {
	a := sampleTx()
	b := sampleTx()
	b.Outputs[0].Value++
	if a.ID() == b.ID() {
		t.Fatal("different transactions share an ID")
	}
}

func TestIsCoinbase(t *testing.T) {
	coinbase := &Tx{
		Inputs:  []TxIn{{Prev: OutPoint{Index: coinbaseIndex}}},
		Outputs: []TxOut{{Value: 50}},
	}
	if !coinbase.IsCoinbase() {
		t.Fatal("coinbase not recognized")
	}
	if sampleTx().IsCoinbase() {
		t.Fatal("regular tx recognized as coinbase")
	}
}

func TestSigHashCommitsToOutputs(t *testing.T) {
	lock := script.PayToPubKeyHash([20]byte{1})
	a := sampleTx()
	b := sampleTx()
	b.Outputs[0].Value = 999

	if a.SigHash(0, lock) == b.SigHash(0, lock) {
		t.Fatal("sighash does not commit to outputs")
	}
}

func TestSigHashIndependentOfOtherUnlocks(t *testing.T) {
	lock := script.PayToPubKeyHash([20]byte{1})
	a := sampleTx()
	a.Inputs = append(a.Inputs, TxIn{Prev: OutPoint{TxID: Hash{9}, Index: 1}})
	b := &Tx{Version: a.Version, Inputs: make([]TxIn, len(a.Inputs)), Outputs: a.Outputs, LockTime: a.LockTime}
	copy(b.Inputs, a.Inputs)
	b.Inputs[1].Unlock = script.Script{0x01, 0xff} // different sibling unlock

	if a.SigHash(0, lock) != b.SigHash(0, lock) {
		t.Fatal("sighash depends on sibling unlocking scripts")
	}
}

func TestSigHashCommitsToInputIndex(t *testing.T) {
	lock := script.PayToPubKeyHash([20]byte{1})
	tx := sampleTx()
	tx.Inputs = append(tx.Inputs, TxIn{Prev: OutPoint{TxID: Hash{9}, Index: 1}})
	if tx.SigHash(0, lock) == tx.SigHash(1, lock) {
		t.Fatal("sighash does not commit to input index")
	}
}

func TestHashFromString(t *testing.T) {
	h := Hash{0xde, 0xad}
	back, err := HashFromString(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("hash string round trip mismatch")
	}
	if _, err := HashFromString("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := HashFromString("abcd"); err == nil {
		t.Error("short hash accepted")
	}
}

func TestVarIntRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xfc, 0xfd, 0xffff, 0x10000, 0xffffffff, 0x100000000, 1 << 60} {
		buf := appendVarInt(nil, v)
		if len(buf) != varIntLen(v) {
			t.Fatalf("varint %d: %d bytes, varIntLen says %d", v, len(buf), varIntLen(v))
		}
		got, err := readVarInt(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("readVarInt(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("varint round trip %d -> %d", v, got)
		}
	}
}

func TestVerifyInputOutOfRange(t *testing.T) {
	tx := sampleTx()
	if err := tx.VerifyInput(5, nil); err == nil {
		t.Fatal("out-of-range input accepted")
	}
}

func TestCheckTxSanity(t *testing.T) {
	valid := sampleTx()
	if err := CheckTxSanity(valid); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}

	empty := &Tx{}
	if err := CheckTxSanity(empty); !errors.Is(err, ErrEmptyTx) {
		t.Errorf("empty tx err = %v, want ErrEmptyTx", err)
	}

	overflow := sampleTx()
	overflow.Outputs[0].Value = maxMoney + 1
	if err := CheckTxSanity(overflow); !errors.Is(err, ErrValueOverflow) {
		t.Errorf("overflow err = %v, want ErrValueOverflow", err)
	}

	dup := sampleTx()
	dup.Inputs = append(dup.Inputs, dup.Inputs[0])
	if err := CheckTxSanity(dup); !errors.Is(err, ErrDuplicateInput) {
		t.Errorf("dup input err = %v, want ErrDuplicateInput", err)
	}

	zeroPrev := sampleTx()
	zeroPrev.Inputs[0].Prev = OutPoint{} // zero txid but not coinbase index
	if err := CheckTxSanity(zeroPrev); !errors.Is(err, ErrBadCoinbase) {
		t.Errorf("zero prev err = %v, want ErrBadCoinbase", err)
	}
}

// TestEncodingsSizedOnceGolden pins the transaction, signature-preimage,
// header and block encodings (a 300-byte unlock takes the 3-byte varint)
// and checks each is built in one slice of exactly its length.
func TestEncodingsSizedOnceGolden(t *testing.T) {
	tx := sampleTx()
	tx.Inputs = append(tx.Inputs, TxIn{Prev: OutPoint{TxID: Hash{0x09}, Index: 300}, Unlock: make([]byte, 300)})
	h := Header{Version: 1, PrevBlock: Hash{7}, MerkleRoot: Hash{8}, Time: 9, Height: 10,
		MinerPubKey: []byte("miner"), Signature: []byte("sig")}
	b := &Block{Header: h, Txs: []*Tx{tx, sampleTx()}}
	for _, c := range []struct {
		name, want string
		got        Hash
	}{
		{"sighash", "4274c35c5d6e150a78bc59d12079de648e4e673ac045b2dc16dcdf76423f654d",
			tx.SigHash(1, script.PayToPubKeyHash([20]byte{0xbb}))},
		{"txid", "165edcd71bd939390ee92fa3e07eab87257ac3c7149a0a50616e7405d2cbb754", tx.ID()},
		{"block", "131e6ff3d9d68cbc1f85f8cc7f992d2f9e4373fb0dc4d873a59187931d2f4245",
			Hash(bccrypto.DoubleSHA256(b.Serialize()))},
		{"header digest", "f644ad85037b843eaa04ad2f98447f2c8cc5dabc7b4038583456a279d601a702", h.digest()},
		{"header id", "78f4719e8439c849755af1cc388df97c07bd555930d739489360acfb4e013632", h.ID()},
	} {
		if c.got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	for name, enc := range map[string][]byte{
		"tx":     tx.encode(),
		"header": h.Serialize(),
		"block":  b.Serialize(),
	} {
		if len(enc) != cap(enc) {
			t.Errorf("%s encoding: len %d, cap %d", name, len(enc), cap(enc))
		}
	}
}

// TestHeaderIDOnStack checks that ID and digest encode on the stack and
// hash what Serialize emits, for a header that fits headerBuf and for
// one whose miner key overflows it.
func TestHeaderIDOnStack(t *testing.T) {
	for _, keyLen := range []int{bccrypto.ECPublicKeyLen, headerBuf} {
		h := Header{Version: 1, PrevBlock: Hash{7}, MerkleRoot: Hash{8}, Time: 9, Height: 10,
			MinerPubKey: bytes.Repeat([]byte{0x04}, keyLen), Signature: make([]byte, 72)}
		if got, want := h.ID(), Hash(bccrypto.DoubleSHA256(h.Serialize())); got != want {
			t.Errorf("%d-byte key: ID = %s, want DoubleSHA256(Serialize()) = %s", keyLen, got, want)
		}
		unsigned := h
		unsigned.Signature = nil
		enc := unsigned.Serialize()
		if got, want := h.digest(), Hash(bccrypto.DoubleSHA256(enc[:len(enc)-1])); got != want {
			t.Errorf("%d-byte key: digest = %s, want the hash of the unsigned fields %s", keyLen, got, want)
		}
		if h.serializedSize() > headerBuf {
			continue // past the buffer append grows the encoding onto the heap
		}
		if n := testing.AllocsPerRun(100, func() { h.ID() }); n != 0 {
			t.Errorf("ID allocates %v times per call, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() { h.digest() }); n != 0 {
			t.Errorf("digest allocates %v times per call, want 0", n)
		}
	}
}

// TestSigHashAllocs is the tripwire for the signature preimage leaving
// the stack: every input's CheckSig builds one.
func TestSigHashAllocs(t *testing.T) {
	tx := sampleTx()
	lock := script.PayToPubKeyHash([20]byte{0xbb})
	if n := tx.encodedSize(&sigInput{index: 0, prevLock: lock}) + 4; n > sigHashBuf {
		t.Fatalf("sample preimage is %d bytes, over the %d-byte buffer", n, sigHashBuf)
	}
	if n := testing.AllocsPerRun(100, func() { tx.SigHash(0, lock) }); n != 0 {
		t.Errorf("SigHash allocates %v times per call, want 0", n)
	}
	// Past the buffer the preimage takes the heap and hashes the same.
	long := script.Script(bytes.Repeat([]byte{byte(script.OpNop)}, sigHashBuf))
	sig := &sigInput{index: 0, prevLock: long}
	want := Hash(bccrypto.DoubleSHA256(binary.LittleEndian.AppendUint32(tx.appendEncoding(nil, sig), 0)))
	if got := tx.SigHash(0, long); got != want {
		t.Errorf("SigHash past the buffer = %s, want %s", got, want)
	}
}
