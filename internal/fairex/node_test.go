package fairex

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/script"
	"bcwan/internal/wallet"
)

type nodeFixture struct {
	node   *Node
	miner  *chain.Miner
	minerW *wallet.Wallet
	buyer  *wallet.Wallet
	gw     *wallet.Wallet
	now    time.Time
}

func newNodeFixture(t *testing.T) *nodeFixture {
	t.Helper()
	buyer, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{buyer.PubKeyHash(): 100_000})
	c, err := chain.New(chain.DefaultParams(), genesis)
	if err != nil {
		t.Fatal(err)
	}
	c.AuthorizeMiner(minerW.PublicBytes())
	pool := chain.NewMempool()
	return &nodeFixture{
		node:   &Node{Chain: c, Pool: pool},
		miner:  chain.NewMiner(minerW.Key(), c, pool, rand.Reader),
		minerW: minerW,
		buyer:  buyer,
		gw:     gw,
		now:    time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC),
	}
}

func (f *nodeFixture) mine(t *testing.T) {
	t.Helper()
	f.now = f.now.Add(15 * time.Second)
	if _, err := f.miner.Mine(f.now); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSubmitInvokesOnSubmit(t *testing.T) {
	f := newNodeFixture(t)
	var submitted []*chain.Tx
	f.node.OnSubmit = func(tx *chain.Tx) { submitted = append(submitted, tx) }

	tx, err := f.buyer.BuildPayment(f.node.UTXO(), f.gw.PubKeyHash(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if len(submitted) != 1 || submitted[0].ID() != tx.ID() {
		t.Fatalf("OnSubmit calls = %d", len(submitted))
	}
	// A rejected Submit must not invoke the hook.
	if err := f.node.Submit(tx); err == nil {
		t.Fatal("duplicate accepted")
	}
	if len(submitted) != 1 {
		t.Fatal("hook fired for rejected tx")
	}
}

func TestNodeUTXOIncludesMempool(t *testing.T) {
	f := newNodeFixture(t)
	tx, err := f.buyer.BuildPayment(f.node.UTXO(), f.gw.PubKeyHash(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(tx); err != nil {
		t.Fatal(err)
	}
	// The unconfirmed output is spendable in the Node's view.
	if bal := f.node.UTXO().BalanceOf(f.gw.PubKeyHash()); bal != 10 {
		t.Fatalf("gateway mempool balance = %d, want 10", bal)
	}
	// But not in the chain's confirmed view.
	if bal := f.node.Chain.UTXO().BalanceOf(f.gw.PubKeyHash()); bal != 0 {
		t.Fatalf("gateway confirmed balance = %d, want 0", bal)
	}
}

func TestNodeLedgerViews(t *testing.T) {
	f := newNodeFixture(t)
	if f.node.Height() != 0 {
		t.Fatal("fresh height not 0")
	}
	if f.node.Params().BlockInterval <= 0 {
		t.Fatal("params not exposed")
	}
	tx, err := f.buyer.BuildPayment(f.node.UTXO(), f.gw.PubKeyHash(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.node.PendingTx(tx.ID()); !ok {
		t.Fatal("pending tx invisible")
	}
	f.mine(t)
	if f.node.Confirmations(tx.ID()) != 1 {
		t.Fatal("confirmations != 1 after mining")
	}
	if _, _, ok := f.node.FindTx(tx.ID()); !ok {
		t.Fatal("FindTx missed confirmed tx")
	}
}

func TestExtractKeyFromClaimPaths(t *testing.T) {
	f := newNodeFixture(t)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: f.gw.PubKeyHash(),
		RefundHeight:      f.node.Height() + 100,
		BuyerPubKeyHash:   f.buyer.PubKeyHash(),
	}
	payment, err := f.buyer.BuildKeyReleasePayment(f.node.UTXO(), params, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(payment); err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	op := chain.OutPoint{TxID: payment.ID(), Index: 0}

	// No spender yet.
	if spender, _, ok := f.node.FindSpender(op); ok {
		t.Fatalf("spender %s before any claim", spender.ID())
	}

	claim, err := f.gw.BuildClaim(op, payment.Outputs[0], eKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(claim); err != nil {
		t.Fatal(err)
	}
	// Unconfirmed claim: FindSpender scans the chain only.
	if _, _, ok := f.node.FindSpender(op); ok {
		t.Fatal("FindSpender found the unconfirmed claim")
	}
	f.mine(t)
	spender, _, ok := f.node.FindSpender(op)
	if !ok {
		t.Fatal("confirmed claim not found")
	}
	got, err := ClaimedKey(spender, payment.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !got.MatchesPublic(eKey.Public()) {
		t.Fatal("extracted key mismatch")
	}
}

func TestExtractKeyFromRefundIsNotAClaim(t *testing.T) {
	f := newNodeFixture(t)
	eKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eKey.Public()),
		GatewayPubKeyHash: f.gw.PubKeyHash(),
		RefundHeight:      2,
		BuyerPubKeyHash:   f.buyer.PubKeyHash(),
	}
	payment, err := f.buyer.BuildKeyReleasePayment(f.node.UTXO(), params, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(payment); err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	f.mine(t) // height 2: refund unlocked

	refund, err := f.buyer.BuildRefund(chain.OutPoint{TxID: payment.ID(), Index: 0}, payment.Outputs[0], 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.node.Submit(refund); err != nil {
		t.Fatal(err)
	}
	f.mine(t)
	// The spender exists, but it is the refund — no key to extract.
	spender, _, ok := f.node.FindSpender(chain.OutPoint{TxID: payment.ID(), Index: 0})
	if !ok {
		t.Fatal("confirmed refund not found")
	}
	if _, err := ClaimedKey(spender, payment.ID()); !errors.Is(err, ErrNoClaim) {
		t.Fatalf("err = %v, want ErrNoClaim for refund spender", err)
	}
}
