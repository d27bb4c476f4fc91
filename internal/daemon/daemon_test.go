package daemon

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/rpc"
	"bcwan/internal/wallet"
)

// cluster is a deployed three-daemon federation over real localhost TCP:
// a mining master, a gateway daemon and a recipient daemon, each with its
// own chain replica synced by gossip.
type cluster struct {
	t      *testing.T
	params chain.Params
	master *Node
	gwd    *GatewayDaemon
	rcptd  *RecipientDaemon
	funds  *wallet.Wallet // treasury controlling the genesis allocation
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	return newGatewayCluster(t, gateway.DefaultConfig())
}

// newGatewayCluster is newCluster with the gateway daemon on gwCfg.
func newGatewayCluster(t *testing.T, gwCfg gateway.Config) *cluster {
	t.Helper()
	treasury, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := chain.DefaultParams()
	genesis := chain.GenesisBlock(map[[20]byte]uint64{treasury.PubKeyHash(): 10_000_000})
	miners := [][]byte{minerKey.PublicBytes()}

	master, err := NewNode(NodeConfig{
		Genesis:      genesis,
		Params:       params,
		Miners:       miners,
		MinerKey:     minerKey,
		MineInterval: time.Hour, // tests mine explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	gwNode, err := NewNode(NodeConfig{
		Genesis: genesis,
		Params:  params,
		Miners:  miners,
		Peers:   []string{master.P2PAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gwNode.Close() })

	rcptNode, err := NewNode(NodeConfig{
		Genesis: genesis,
		Params:  params,
		Miners:  miners,
		Peers:   []string{master.P2PAddr(), gwNode.P2PAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcptNode.Close() })

	gwd, err := NewGatewayDaemon(gwNode, gwCfg, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	rcptd, err := NewRecipientDaemon(rcptNode, recipient.DefaultConfig(), "", rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcptd.Close() })

	return &cluster{
		t:      t,
		params: params,
		master: master,
		gwd:    gwd,
		rcptd:  rcptd,
		funds:  treasury,
	}
}

// mine mints a block on the master and waits for every replica to adopt
// it.
func (c *cluster) mine() {
	c.t.Helper()
	b, err := c.master.MineNow()
	if err != nil {
		c.t.Fatal(err)
	}
	c.waitHeight(b.Header.Height)
}

func (c *cluster) waitHeight(h int64) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c.gwd.Node.Chain().Height() >= h && c.rcptd.Node.Chain().Height() >= h {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("replicas stuck below height %d (gw=%d rcpt=%d)",
				h, c.gwd.Node.Chain().Height(), c.rcptd.Node.Chain().Height())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitPooled blocks until the node's mempool holds the transaction.
func (c *cluster) waitPooled(n *Node, id chain.Hash) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := n.Ledger().PendingTx(id); ok {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("tx %s never reached the mempool", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fundRecipient pays the recipient wallet from the treasury through the
// master's mempool.
func (c *cluster) fundRecipient(amount uint64) {
	c.t.Helper()
	tx, err := c.funds.BuildPayment(c.master.Ledger().UTXO(), c.rcptd.Recipient.Wallet().PubKeyHash(), amount, 1)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.master.Ledger().Submit(tx); err != nil {
		c.t.Fatal(err)
	}
	c.mine()
}

func TestClusterReplicatesBlocks(t *testing.T) {
	c := newCluster(t)
	c.mine()
	c.mine()
	if got := c.rcptd.Node.Chain().Height(); got != 2 {
		t.Fatalf("replica height = %d, want 2", got)
	}
	if c.master.Chain().Tip().ID() != c.gwd.Node.Chain().Tip().ID() {
		t.Fatal("tips diverged")
	}
}

func TestClusterGossipsTransactions(t *testing.T) {
	c := newCluster(t)
	c.fundRecipient(1000)
	if got := c.rcptd.Recipient.Wallet().Balance(c.rcptd.Node.Ledger().UTXO()); got != 1000 {
		t.Fatalf("recipient replica balance = %d, want 1000", got)
	}
}

func TestClusterLateJoinerSyncs(t *testing.T) {
	c := newCluster(t)
	c.mine()
	c.mine()
	c.mine()

	late, err := NewNode(NodeConfig{
		Genesis: c.master.Chain().Genesis(),
		Params:  c.params,
		Miners:  [][]byte{},
		Peers:   []string{c.master.P2PAddr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	deadline := time.Now().Add(10 * time.Second)
	for late.Chain().Height() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("late joiner stuck at height %d", late.Chain().Height())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFullExchangeOverTCP(t *testing.T) {
	c := newCluster(t)
	c.fundRecipient(100_000)

	// The recipient publishes its binding; once mined, the gateway's
	// replica can resolve @R.
	bindTx, err := c.rcptd.PublishBinding(1)
	if err != nil {
		t.Fatal(err)
	}
	// Gossip is asynchronous: wait for the master to pool the binding
	// before mining it.
	c.waitPooled(c.master, bindTx.ID())
	c.mine()

	// Provision a sensor against the recipient daemon.
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0xaa, 1}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: c.rcptd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c.rcptd.Recipient.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})

	received := make(chan *recipient.Message, 1)
	c.rcptd.OnReceive(func(m *recipient.Message) { received <- m })

	// LoRa leg (simulated hardware): key request then data frame.
	keyResp, err := c.gwd.HandleUplink(dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := dev.DataFrame([]byte("7.3pH"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery and payment over the overlay on real TCP, claim on the
	// gateway's replica.
	if _, err := c.gwd.HandleUplink(dataFrame); err != nil {
		t.Fatal(err)
	}

	// Mine so the claim confirms and the recipient daemon settles.
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.mine()
		select {
		case msg := <-received:
			if string(msg.Plaintext) != "7.3pH" {
				t.Fatalf("plaintext = %q", msg.Plaintext)
			}
			if len(c.rcptd.Inbox()) != 1 {
				t.Fatalf("inbox = %d", len(c.rcptd.Inbox()))
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("exchange never settled")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// rendezvousReader is an entropy source that, once armed, holds its
// first Read for up to rendezvousWait until a second Read arrives, then
// lets both go on. A wallet signs — and reads entropy — between
// Spendable and Submit, so it forces any two spends that are allowed to
// build at the same time to do so.
type rendezvousReader struct {
	mu      sync.Mutex
	state   int // 0 idle, 1 armed, 2 holding a first reader, 3 spent
	partner chan struct{}
}

const rendezvousWait = 200 * time.Millisecond

func (r *rendezvousReader) arm() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state, r.partner = 1, make(chan struct{})
}

func (r *rendezvousReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	switch r.state {
	case 1:
		r.state = 2
		r.mu.Unlock()
		select {
		case <-r.partner:
		case <-time.After(rendezvousWait):
		}
		r.mu.Lock()
		r.state = 3
	case 2:
		r.state = 3
		close(r.partner)
	}
	r.mu.Unlock()
	return rand.Read(p)
}

// TestBindingPublishAndPaymentsSpendDistinctCoins republishes a
// recipient's directory binding while on-chain deliveries pay from the
// same wallet, with the first signer held until a second spend signs
// too. The binding and every payment must reach the pool: none may pick
// a coin another one already spent and be refused as a double spend.
func TestBindingPublishAndPaymentsSpendDistinctCoins(t *testing.T) {
	const payments = 8
	c := newCluster(t)
	entropy := &rendezvousReader{}
	rd, err := NewRecipientDaemon(c.rcptd.Node, recipient.DefaultConfig(), "", entropy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	fund, err := c.funds.BuildPayment(c.master.Ledger().UTXO(), rd.Recipient.Wallet().PubKeyHash(), 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.master.Ledger().Submit(fund); err != nil {
		t.Fatal(err)
	}
	c.mine()
	bindTx, err := rd.PublishBinding(1)
	if err != nil {
		t.Fatal(err)
	}
	c.waitPooled(c.master, bindTx.ID())
	c.mine()

	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0xc4, 3}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: rd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rd.Recipient.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	deliveries := make([]*fairex.Delivery, payments)
	for i := range deliveries {
		if deliveries[i], _, err = c.gwd.Gateway.HandleData(c.dataFrame(t, dev, []byte(fmt.Sprintf("reading-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}

	entropy.arm()
	txs := make([]*chain.Tx, payments+1) // the binding goes last
	errs := make([]error, payments+1)
	var wg sync.WaitGroup
	wg.Add(payments + 1)
	go func() {
		defer wg.Done()
		txs[payments], errs[payments] = rd.PublishBinding(1)
	}()
	for i, d := range deliveries {
		go func() {
			defer wg.Done()
			txs[i], errs[i] = rd.Recipient.HandleDelivery(d)
		}()
	}
	wg.Wait()

	ledger := rd.Node.Ledger()
	spentBy := make(map[chain.OutPoint]int)
	for i, tx := range txs {
		if errs[i] != nil {
			t.Fatalf("spend %d of %d (the last is the binding): %v", i, payments+1, errs[i])
		}
		if _, ok := ledger.PendingTx(tx.ID()); !ok {
			t.Fatalf("spend %d: not in the pool", i)
		}
		for _, in := range tx.Inputs {
			if j, dup := spentBy[in.Prev]; dup {
				t.Fatalf("spends %d and %d both spend %v", j, i, in.Prev)
			}
			spentBy[in.Prev] = i
		}
	}
}

func TestRPCVisibleAcrossCluster(t *testing.T) {
	c := newCluster(t)
	c.mine()
	client := rpc.NewClient(c.rcptd.Node.RPCAddr())
	var h int64
	if err := client.Call(context.Background(), "getblockcount", &h); err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Fatalf("rpc height = %d, want 1", h)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	c := newCluster(t)
	if err := c.master.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.master.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryToDeadRecipientFails(t *testing.T) {
	c := newCluster(t)
	c.fundRecipient(100_000)
	bindTx, err := c.rcptd.PublishBinding(1)
	if err != nil {
		t.Fatal(err)
	}
	c.waitPooled(c.master, bindTx.ID())
	c.mine()

	// Close the recipient daemon; the binding still points at its node,
	// which now refuses every delivery.
	if err := c.rcptd.Close(); err != nil {
		t.Fatal(err)
	}

	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0xbb, 2}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: c.rcptd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keyResp, err := c.gwd.HandleUplink(dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame, err := dev.DataFrame([]byte("x"), keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.gwd.HandleUplink(dataFrame); err == nil {
		t.Fatal("delivery to dead recipient succeeded")
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("delivery to dead recipient took %s to fail, want under 1s", took)
	}
}

// bareGateway connects a bare overlay node to the recipient daemon's
// node and collects the deliveryacks it gets back.
func (c *cluster) bareGateway(t *testing.T) (*p2p.Node, <-chan deliveryAck) {
	t.Helper()
	peer, err := p2p.NewNode(p2p.TCPTransport{}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	acks := make(chan deliveryAck, 16)
	p2p.Handle(peer, msgTypeDeliveryAck, decodeDeliveryAck, func(_ string, a *deliveryAck) { acks <- *a })
	if err := peer.Connect(c.rcptd.Node.P2PAddr()); err != nil {
		t.Fatal(err)
	}
	return peer, acks
}

func TestRecipientDaemonRejectsGarbageConnection(t *testing.T) {
	c := newCluster(t)
	peer, acks := c.bareGateway(t)
	if !peer.SendTo(c.rcptd.Node.P2PAddr(), msgTypeDelivery, []byte("this is not a delivery\n")) {
		t.Fatal("garbage not sent")
	}
	// The garbage is charged to its sender and never answered.
	waitCond(t, "the garbage charged", func() bool {
		return c.rcptd.Node.Gossip().BanScore(peer.Addr()) == p2p.Penalty
	})
	select {
	case a := <-acks:
		t.Fatalf("garbage answered: %+v", a)
	default:
	}
	// The daemon must survive; a valid status query still works.
	if got := len(c.rcptd.Inbox()); got != 0 {
		t.Fatalf("inbox = %d", got)
	}
	c.mine() // exercises settlePending with nothing pending
}

func TestRecipientDaemonRefusesUnknownSensorDelivery(t *testing.T) {
	c := newCluster(t)
	peer, acks := c.bareGateway(t)
	payload := encodeDelivery(&fairex.Delivery{DevEUI: lora.DevEUI{0xff}})
	if !peer.SendTo(c.rcptd.Node.P2PAddr(), msgTypeDelivery, payload) {
		t.Fatal("delivery not sent")
	}
	var ack deliveryAck
	select {
	case ack = <-acks:
	case <-time.After(10 * time.Second):
		t.Fatal("no deliveryack")
	}
	if ack.DevEUI != (lora.DevEUI{0xff}) {
		t.Fatalf("ack names sensor %s", ack.DevEUI)
	}
	if ack.Accepted {
		t.Fatal("unknown sensor accepted")
	}
	if ack.Reason == "" {
		t.Fatal("refusal without a reason")
	}
}

// TestUndecodablePayloadCostsOnePenalty sends every message type a
// plain node, a gateway or a recipient registers one payload its decoder
// refuses, each from a fresh peer. The sender's score rises by exactly
// p2p.Penalty and nothing answers the frame; a type the node does not
// register costs nothing.
func TestUndecodablePayloadCostsOnePenalty(t *testing.T) {
	c := newCluster(t)
	c.enableChannels(t)
	junk := []byte{0xff}
	badHeader := (&p2p.MsgHeaders{Headers: [][]byte{{1, 2, 3}}}).Encode()
	badFunding := (&p2p.MsgChannelFund{FundingTx: []byte{1, 2, 3}}).Encode()
	badManifest := (&p2p.MsgSnapshotChunk{Height: 1, Chunk: -1, Total: 1, Manifest: []byte{1, 2, 3}}).Encode()
	plain, gw, rc := c.master, c.gwd.Node, c.rcptd.Node
	for _, tc := range []struct {
		node    *Node
		msgType string
		payload []byte
		charged bool
	}{
		{plain, "inv", junk, true},
		{plain, "getdata", junk, true},
		{plain, "tx", junk, true},
		{plain, "block", junk, true},
		{plain, p2p.MsgTypeSnapCommit, junk, true},
		{plain, "cmpctblock", junk, true},
		{plain, "getblocktxn", junk, true},
		{plain, "blocktxn", junk, true},
		{plain, p2p.MsgTypeGetHeaders, junk, true},
		{plain, p2p.MsgTypeHeaders, junk, true},
		{plain, p2p.MsgTypeHeaders, badHeader, true},
		{plain, p2p.MsgTypeGetSnapshot, junk, true},
		{plain, p2p.MsgTypeSnapshotChunk, junk, true},
		{plain, p2p.MsgTypeSnapshotChunk, badManifest, true},
		{gw, msgTypeDeliveryAck, junk, true},
		{gw, p2p.MsgTypeChannelOpen, junk, true},
		{gw, p2p.MsgTypeChannelFund, junk, true},
		{gw, p2p.MsgTypeChannelFund, badFunding, true},
		{gw, p2p.MsgTypeChannelUpdate, junk, true},
		{gw, p2p.MsgTypeChannelClose, junk, true},
		{rc, msgTypeDelivery, junk, true},
		{rc, p2p.MsgTypeChannelAccept, junk, true},
		{rc, p2p.MsgTypeChannelUpdateAck, junk, true},
		{plain, msgTypeDelivery, junk, false},
		{plain, "no-such-type", junk, false},
	} {
		name := fmt.Sprintf("%s %x to %s", tc.msgType, tc.payload, tc.node.P2PAddr())
		// Each peer listens until the test ends, so no two share an
		// address, and with it a score.
		peer, err := p2p.NewNode(p2p.TCPTransport{}, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { peer.Close() })
		// Every frame the node sends back is recorded; a getheaders
		// behind the bad frame is the barrier, since the node handles one
		// link's frames in order and answers it with headers.
		var mu sync.Mutex
		var answers []string
		barrier := make(chan struct{}, 1)
		for _, typ := range []string{p2p.MsgTypeHeaders, msgTypeDeliveryAck, p2p.MsgTypeChannelAccept,
			p2p.MsgTypeChannelUpdateAck, p2p.MsgTypeSnapshotChunk, "tx", "block", "blocktxn"} {
			p2p.Handle(peer, typ, rawBytes, func(string, []byte) {
				mu.Lock()
				answers = append(answers, typ)
				mu.Unlock()
				if typ == p2p.MsgTypeHeaders {
					barrier <- struct{}{}
				}
			})
		}
		if err := peer.Connect(tc.node.P2PAddr()); err != nil {
			t.Fatal(err)
		}
		peer.SendTo(tc.node.P2PAddr(), tc.msgType, tc.payload)
		peer.SendTo(tc.node.P2PAddr(), p2p.MsgTypeGetHeaders, (&p2p.MsgGetHeaders{Max: 1}).Encode())
		select {
		case <-barrier:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the barrier was never answered", name)
		}
		want := 0
		if tc.charged {
			want = p2p.Penalty
		}
		if got := tc.node.Gossip().BanScore(peer.Addr()); got != want {
			t.Errorf("%s: sender's score %d, want %d", name, got, want)
		}
		mu.Lock()
		if len(answers) != 1 {
			t.Errorf("%s: answered with %v, want the barrier's headers alone", name, answers)
		}
		mu.Unlock()
	}
}
