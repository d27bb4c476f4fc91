package registry

import (
	"bytes"
	"crypto/rand"
	"errors"
	"strings"
	"testing"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/wallet"
)

func TestBindingEncodeDecode(t *testing.T) {
	var hash [20]byte
	copy(hash[:], "recipient-pubkeyhash")
	data, err := EncodeBinding(hash, "192.0.2.17:7000")
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBinding(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.PubKeyHash != hash || b.NetAddr != "192.0.2.17:7000" {
		t.Fatalf("binding = %+v", b)
	}
}

func TestEncodeBindingRejects(t *testing.T) {
	var hash [20]byte
	if _, err := EncodeBinding(hash, ""); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("empty addr err = %v", err)
	}
	if _, err := EncodeBinding(hash, strings.Repeat("a", 200)); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("long addr err = %v", err)
	}
}

func TestDecodeBindingRejects(t *testing.T) {
	var hash [20]byte
	good, err := EncodeBinding(hash, "10.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":        {1, 2, 3},
		"bad magic":    append([]byte("XXXXXX"), good[6:]...),
		"truncated":    good[:len(good)-2],
		"extra":        append(append([]byte(nil), good...), 'x'),
		"zero address": good[:27],
	}
	for name, data := range cases {
		if _, err := DecodeBinding(data); !errors.Is(err, ErrBadBinding) {
			t.Errorf("%s: err = %v, want ErrBadBinding", name, err)
		}
	}
}

type regFixture struct {
	chain   *chain.Chain
	mempool *chain.Mempool
	miner   *chain.Miner
	w       *wallet.Wallet
	minerW  *wallet.Wallet
	genesis *chain.Block
	alloc   map[[20]byte]uint64
}

func newRegFixture(t *testing.T, extra ...*wallet.Wallet) *regFixture {
	t.Helper()
	w, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[[20]byte]uint64{w.PubKeyHash(): 100_000}
	for _, ew := range extra {
		alloc[ew.PubKeyHash()] = 100_000
	}
	genesis := chain.GenesisBlock(alloc)
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	return &regFixture{
		chain:   c,
		mempool: pool,
		miner:   chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		w:       w,
		minerW:  minerW,
		genesis: genesis,
		alloc:   alloc,
	}
}

func (f *regFixture) submit(t *testing.T, tx *chain.Tx) {
	t.Helper()
	if err := f.mempool.Accept(tx, f.chain.UTXO(), f.chain.Height(), f.chain.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
}

func (f *regFixture) publish(t *testing.T, addr string) {
	t.Helper()
	tx, err := BuildPublish(f.w, f.chain.UTXO(), addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mempool.Accept(tx, f.chain.UTXO(), f.chain.Height(), f.chain.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryScansSubscribedBlocks(t *testing.T) {
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	f.publish(t, "192.0.2.5:7000")

	b, err := dir.Lookup(f.w.PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if b.NetAddr != "192.0.2.5:7000" {
		t.Fatalf("resolved %q", b.NetAddr)
	}
	if b.Height != 1 {
		t.Fatalf("height = %d, want 1", b.Height)
	}
}

func TestDirectoryAttachScansHistory(t *testing.T) {
	f := newRegFixture(t)
	f.publish(t, "192.0.2.5:7000")

	// Attach after the record is already on-chain (the start-up scan).
	dir := NewDirectory()
	dir.Attach(f.chain)
	if _, err := dir.Lookup(f.w.PubKeyHash()); err != nil {
		t.Fatalf("start-up scan missed the binding: %v", err)
	}
}

func TestDirectoryLatestBindingWins(t *testing.T) {
	// The roaming case: the recipient moves and republishes.
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	f.publish(t, "192.0.2.5:7000")
	f.publish(t, "198.51.100.9:8000")

	b, err := dir.Lookup(f.w.PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if b.NetAddr != "198.51.100.9:8000" {
		t.Fatalf("resolved %q, want the newer binding", b.NetAddr)
	}
	if dir.Len() != 1 {
		t.Fatalf("directory size = %d, want 1", dir.Len())
	}
}

func TestDirectoryLookupMiss(t *testing.T) {
	dir := NewDirectory()
	if _, err := dir.Lookup([20]byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDirectoryRebindsSamePubKeyHashAcrossBlocks(t *testing.T) {
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	addrs := []string{"192.0.2.5:7000", "198.51.100.9:8000", "203.0.113.2:9000"}
	for _, a := range addrs {
		f.publish(t, a)
	}
	b, err := dir.Lookup(f.w.PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if b.NetAddr != addrs[len(addrs)-1] {
		t.Fatalf("resolved %q, want last rebinding", b.NetAddr)
	}
	if b.Height != int64(len(addrs)) {
		t.Fatalf("height = %d, want %d", b.Height, len(addrs))
	}
	if dir.Len() != 1 {
		t.Fatalf("Len = %d after %d rebinds, want 1", dir.Len(), len(addrs))
	}
}

func TestDirectoryRejectsForgedBinding(t *testing.T) {
	attacker, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := newRegFixture(t, attacker)
	dir := NewDirectory()
	dir.Attach(f.chain)

	f.publish(t, "192.0.2.5:7000") // the victim's own, authenticated binding

	// The attacker binds the victim's @R to its own address. The carrying
	// tx is valid on-chain (it spends the attacker's coins) but no input
	// proves control of the victim's key, so the record must be dropped.
	payload, err := EncodeBinding(f.w.PubKeyHash(), "203.0.113.66:9999")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := attacker.BuildDataPublish(f.chain.UTXO(), payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.submit(t, forged)

	b, err := dir.Lookup(f.w.PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if b.NetAddr != "192.0.2.5:7000" {
		t.Fatalf("hijacked: resolved %q", b.NetAddr)
	}
	if dir.ForgedRejected() == 0 {
		t.Fatal("forged binding not counted as rejected")
	}
	if dir.Len() != 1 {
		t.Fatalf("Len = %d, want 1", dir.Len())
	}
}

func TestDirectoryReorgRescan(t *testing.T) {
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	f.publish(t, "192.0.2.5:7000") // binding on branch A at height 1

	// Build a longer competing branch from the same genesis carrying a
	// different binding, then feed it to the observed chain.
	side, err := chain.New(chain.DefaultParams(), f.genesis)
	if err != nil {
		t.Fatal(err)
	}
	side.AuthorizeMiner(f.minerW.PublicBytes())
	sidePool := chain.NewMempool()
	sideMiner := chain.NewMiner(f.minerW.Key(), side, sidePool, rand.Reader)
	tx, err := BuildPublish(f.w, side.UTXO(), "198.51.100.9:8000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sidePool.Accept(tx, side.UTXO(), side.Height(), side.Params()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sideMiner.Mine(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for h := int64(1); h <= side.Height(); h++ {
		b, ok := side.BlockAt(h)
		if !ok {
			t.Fatalf("side branch missing block %d", h)
		}
		if err := f.chain.AddBlock(b); err != nil {
			t.Fatalf("add side block %d: %v", h, err)
		}
	}
	if f.chain.Height() != 2 {
		t.Fatalf("height = %d, want reorg to 2", f.chain.Height())
	}

	b, err := dir.Lookup(f.w.PubKeyHash())
	if err != nil {
		t.Fatal(err)
	}
	if b.NetAddr != "198.51.100.9:8000" {
		t.Fatalf("resolved %q, want side-branch binding after rescan", b.NetAddr)
	}
	if dir.Rescans() == 0 {
		t.Fatal("reorg did not trigger a rescan")
	}
	if dir.Len() != 1 {
		t.Fatalf("Len = %d, want 1", dir.Len())
	}
}

func TestDirectoryEjectedLookup(t *testing.T) {
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	f.publish(t, "192.0.2.5:7000")
	hash := f.w.PubKeyHash()
	dir.Eject(hash)
	if _, err := dir.Lookup(hash); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("ejected lookup err = %v, want ErrUntrusted", err)
	}
	if dir.Len() != 0 {
		t.Fatalf("Len = %d with sole binding ejected, want 0", dir.Len())
	}

	// Rebinding while ejected must not resurrect the address.
	f.publish(t, "198.51.100.9:8000")
	if _, err := dir.Lookup(hash); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("post-rebind ejected lookup err = %v, want ErrUntrusted", err)
	}
}

func FuzzDecodeBinding(f *testing.F) {
	var hash [20]byte
	copy(hash[:], "recipient-pubkeyhash")
	good, err := EncodeBinding(hash, "192.0.2.17:7000")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	// Hostile-field seeds, not just random bytes: length byte lies long,
	// lies short, zero; truncated hash; oversized address; magic off by
	// one byte; trailing garbage.
	lieLong := append([]byte(nil), good...)
	lieLong[26] = 255
	f.Add(lieLong)
	lieShort := append([]byte(nil), good...)
	lieShort[26] = 1
	f.Add(lieShort)
	zeroLen := append([]byte(nil), good...)
	zeroLen[26] = 0
	f.Add(zeroLen)
	f.Add(good[:20])
	f.Add(append(append([]byte(nil), good...), "trailing"...))
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0x20
	f.Add(badMagic)
	f.Add(append(append([]byte(nil), bindingMagic...), make([]byte, 21+200)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBinding(data)
		if err != nil {
			return
		}
		if len(b.NetAddr) == 0 || len(b.NetAddr) > maxNetAddrLen {
			t.Fatalf("accepted out-of-bounds address length %d", len(b.NetAddr))
		}
		// Round-trip: re-encoding an accepted binding must reproduce the
		// input and decode to the same value.
		enc, err := EncodeBinding(b.PubKeyHash, b.NetAddr)
		if err != nil {
			t.Fatalf("accepted binding does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, enc)
		}
		b2, err := DecodeBinding(enc)
		if err != nil || b2 != b {
			t.Fatalf("re-decode mismatch: %+v vs %+v (%v)", b, b2, err)
		}
	})
}

func TestDirectoryIgnoresForeignOpReturns(t *testing.T) {
	f := newRegFixture(t)
	dir := NewDirectory()
	dir.Attach(f.chain)

	tx, err := f.w.BuildDataPublish(f.chain.UTXO(), []byte("unrelated data"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mempool.Accept(tx, f.chain.UTXO(), f.chain.Height(), f.chain.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.miner.Mine(time.Now()); err != nil {
		t.Fatal(err)
	}
	if dir.Len() != 0 {
		t.Fatalf("directory indexed foreign data: %d entries", dir.Len())
	}
}
