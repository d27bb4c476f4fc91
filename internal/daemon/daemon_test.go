package daemon

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"net"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
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
	rcptd, err := NewRecipientDaemon(rcptNode, recipient.DefaultConfig(), "127.0.0.1:0", rand.Reader, nil)
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
	// Delivery over real TCP, payment over gossip, claim on the
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

func TestRPCVisibleAcrossCluster(t *testing.T) {
	c := newCluster(t)
	c.mine()
	client := rpc.NewClient(c.rcptd.Node.RPCAddr())
	h, err := client.GetBlockCount(context.Background())
	if err != nil {
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

	// Kill the recipient's delivery listener; the binding still points
	// at the dead address.
	deadAddr := c.rcptd.Addr()
	if err := c.rcptd.Close(); err != nil {
		t.Fatal(err)
	}
	_ = deadAddr

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
	if _, err := c.gwd.HandleUplink(dataFrame); err == nil {
		t.Fatal("delivery to dead recipient succeeded")
	}
}

func TestRecipientDaemonRejectsGarbageConnection(t *testing.T) {
	c := newCluster(t)
	conn, err := net.Dial("tcp", c.rcptd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The daemon must survive; a valid status query still works.
	if got := len(c.rcptd.Inbox()); got != 0 {
		t.Fatalf("inbox = %d", got)
	}
	c.mine() // exercises settlePending with nothing pending
}

func TestRecipientDaemonRefusesUnknownSensorDelivery(t *testing.T) {
	c := newCluster(t)
	conn, err := net.Dial("tcp", c.rcptd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := fairex.Delivery{DevEUI: lora.DevEUI{0xff}}
	if err := json.NewEncoder(conn).Encode(&d); err != nil {
		t.Fatal(err)
	}
	var ack fairex.Ack
	if err := json.NewDecoder(conn).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted {
		t.Fatal("unknown sensor accepted")
	}
	if ack.Reason == "" {
		t.Fatal("refusal without a reason")
	}
}
