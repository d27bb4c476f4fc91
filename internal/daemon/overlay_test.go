package daemon_test

import (
	"crypto/rand"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/chaos"
	"bcwan/internal/daemon"
	"bcwan/internal/device"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// overlayFed is a miner, a gateway daemon and a recipient daemon whose
// nodes, named "miner", "gw" and "rc", reach each other only through the
// transports the test injects. The recipient's binding is confirmed and
// one sensor is provisioned.
type overlayFed struct {
	t      *testing.T
	nodes  []*daemon.Node
	gwd    *daemon.GatewayDaemon
	rcptd  *daemon.RecipientDaemon
	sensor *device.Device
}

func newOverlayFed(t *testing.T, transport func(name string) p2p.Transport) *overlayFed {
	t.Helper()
	treasury, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	minerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	genesis := chain.GenesisBlock(map[[20]byte]uint64{treasury.PubKeyHash(): 10_000_000})
	f := &overlayFed{t: t}
	start := func(name string, key *bccrypto.ECKey, peers ...string) *daemon.Node {
		n, err := daemon.NewNode(daemon.NodeConfig{
			Genesis:      genesis,
			Params:       chain.DefaultParams(),
			Miners:       [][]byte{minerKey.PublicBytes()},
			ListenP2P:    name,
			Peers:        peers,
			MinerKey:     key,
			MineInterval: time.Hour, // the test mines explicitly
			Transport:    transport(name),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		f.nodes = append(f.nodes, n)
		return n
	}
	miner := start("miner", minerKey)
	gwNode := start("gw", nil, "miner")
	rcNode := start("rc", nil, "miner", "gw")
	if f.gwd, err = daemon.NewGatewayDaemon(gwNode, gateway.DefaultConfig(), rand.Reader, nil); err != nil {
		t.Fatal(err)
	}
	if f.rcptd, err = daemon.NewRecipientDaemon(rcNode, recipient.DefaultConfig(), "", rand.Reader, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.rcptd.Close() })

	fund, err := treasury.BuildPayment(miner.Ledger().Spendable(treasury.PubKeyHash()), f.rcptd.Recipient.Wallet().PubKeyHash(), 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := miner.Ledger().Submit(fund); err != nil {
		t.Fatal(err)
	}
	f.mine()
	bind, err := f.rcptd.PublishBinding(1)
	if err != nil {
		t.Fatal(err)
	}
	f.waitFor("the binding at the miner", func() bool { _, ok := miner.Ledger().PendingTx(bind.ID()); return ok })
	f.mine()

	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	eui := lora.DevEUI{0xf0, 1}
	if f.sensor, err = device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: f.rcptd.Recipient.Wallet().PubKeyHash(),
	}, rand.Reader); err != nil {
		t.Fatal(err)
	}
	f.rcptd.Recipient.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	return f
}

func (f *overlayFed) waitFor(what string, cond func() bool) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			f.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mine mints a block and waits for every node to adopt it.
func (f *overlayFed) mine() {
	f.t.Helper()
	b, err := f.nodes[0].MineNow()
	if err != nil {
		f.t.Fatal(err)
	}
	f.waitFor("every node to adopt the block", func() bool {
		for _, n := range f.nodes {
			if n.Chain().Height() < b.Header.Height {
				return false
			}
		}
		return true
	})
}

// uplink runs one sensor reading through the gateway daemon: the key
// request, then the data frame whose delivery and settlement it returns.
func (f *overlayFed) uplink(reading string) error {
	f.t.Helper()
	keyResp, err := f.gwd.HandleUplink(f.sensor.KeyRequestFrame())
	if err != nil {
		f.t.Fatal(err)
	}
	frame, err := f.sensor.DataFrame([]byte(reading), keyResp.Payload, keyResp.Counter)
	if err != nil {
		f.t.Fatal(err)
	}
	_, err = f.gwd.HandleUplink(frame)
	return err
}

// settleOnChain mines until the recipient's inbox holds want readings.
func (f *overlayFed) settleOnChain(want int) {
	f.t.Helper()
	f.waitFor("the reading in the inbox", func() bool {
		f.mine()
		return len(f.rcptd.Inbox()) >= want
	})
}

func p2pCount(n *daemon.Node, name, msgType string) uint64 {
	return n.Telemetry().Counter("bcwan_p2p_"+name, "", telemetry.L("type", msgType)).Value()
}

// TestDaemonsDeliverOnMemTransport: a gateway daemon and a recipient
// daemon on the in-memory transport settle one reading on-chain and one
// through a payment channel. Both deliveries and both acks are overlay
// messages between the two nodes; nothing else carries step 7.
func TestDaemonsDeliverOnMemTransport(t *testing.T) {
	tr := p2p.NewMemTransport()
	f := newOverlayFed(t, func(string) p2p.Transport { return tr })

	if err := f.uplink("on-chain"); err != nil {
		t.Fatal(err)
	}
	f.settleOnChain(1)

	if _, err := f.gwd.EnableChannels(daemon.DefaultChannelConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.rcptd.EnableChannels(daemon.DefaultChannelConfig()); err != nil {
		t.Fatal(err)
	}
	if err := f.uplink("channel"); err != nil {
		t.Fatal(err)
	}
	// Commit, then ack: the channel-settled reading is in the inbox by
	// the time the uplink returns.
	inbox := f.rcptd.Inbox()
	if len(inbox) != 2 || string(inbox[0].Plaintext) != "on-chain" || string(inbox[1].Plaintext) != "channel" {
		t.Fatalf("inbox = %d messages, want the on-chain and the channel reading in order", len(inbox))
	}
	if s := f.gwd.Gateway.Stats; s.Claims != 1 || s.OffChainClaims != 1 {
		t.Fatalf("gateway claims: %d on-chain, %d off-chain; want one each", s.Claims, s.OffChainClaims)
	}
	gw, rc := f.gwd.Node, f.rcptd.Node
	for _, c := range []struct {
		node     *daemon.Node
		name     string
		msgType  string
		expected uint64
	}{
		{gw, "messages_out_total", "delivery", 2},
		{rc, "messages_in_total", "delivery", 2},
		{rc, "messages_out_total", "deliveryack", 2},
		{gw, "messages_in_total", "deliveryack", 2},
	} {
		// SendTo counts a message once it is queued, so the peer can act
		// on it before the sender's count moves: wait for the count, then
		// require it exact.
		deadline := time.Now().Add(5 * time.Second)
		for p2pCount(c.node, c.name, c.msgType) < c.expected && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := p2pCount(c.node, c.name, c.msgType); got != c.expected {
			t.Fatalf("%s %s{type=%q} = %d, want %d", c.node.P2PAddr(), c.name, c.msgType, got, c.expected)
		}
	}
}

// TestDeliveryRidesTheInjectedTransport: step 7 goes through the node's
// transport, so a partition between the gateway and recipient nodes
// fails the delivery, and healing it lets the next one through.
func TestDeliveryRidesTheInjectedTransport(t *testing.T) {
	net := chaos.NewNet(1)
	f := newOverlayFed(t, net.TransportFor)

	// A partition looks like silence, so the delivery fails at its
	// timeout; shorten it for this attempt only.
	restore := daemon.SetDeliveryTimeout(time.Second)
	defer restore()
	net.Partition([]string{"gw"}, []string{"rc"})
	if err := f.uplink("cut off"); err == nil {
		t.Fatal("delivered across a partition")
	}
	if got := p2pCount(f.rcptd.Node, "messages_in_total", "delivery"); got != 0 {
		t.Fatalf("recipient node received %d deliveries across the partition", got)
	}
	restore()

	net.Heal()
	if err := f.uplink("healed"); err != nil {
		t.Fatal(err)
	}
	f.settleOnChain(1)
	if got := string(f.rcptd.Inbox()[0].Plaintext); got != "healed" {
		t.Fatalf("inbox holds %q, want the reading sent after the heal", got)
	}
}
