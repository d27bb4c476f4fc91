package daemon

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/p2p"
	"bcwan/internal/recipient"
	"bcwan/internal/rpc"
	"bcwan/internal/wallet"
)

// enableChannels switches both cluster daemons to channel settlement with
// on-disk stores, returning the two managers.
func (c *cluster) enableChannels(t *testing.T) (gw, rcpt *ChannelManager) {
	t.Helper()
	ccfg := DefaultChannelConfig()
	dir := t.TempDir()
	ccfg.StoreDir = filepath.Join(dir, "gateway")
	gw, err := c.gwd.EnableChannels(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.StoreDir = filepath.Join(dir, "recipient")
	rcpt, err = c.rcptd.EnableChannels(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if gw == nil || rcpt == nil {
		t.Fatal("channel managers not enabled")
	}
	return gw, rcpt
}

// provisionSensor registers one device with the recipient daemon and
// returns the simulated hardware.
func (c *cluster) provisionSensor(t *testing.T, eui lora.DevEUI) *device.Device {
	t.Helper()
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		t.Fatal(err)
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
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
	return dev
}

// uplink runs one full key-request + data-frame exchange through the
// gateway daemon.
func (c *cluster) uplink(t *testing.T, dev *device.Device, payload []byte) {
	t.Helper()
	if _, err := c.gwd.HandleUplink(c.dataFrame(t, dev, payload)); err != nil {
		t.Fatal(err)
	}
}

// dataFrame runs the key-request half of an uplink and returns the data
// frame that completes it.
func (c *cluster) dataFrame(t *testing.T, dev *device.Device, payload []byte) *lora.Frame {
	t.Helper()
	keyResp, err := c.gwd.HandleUplink(dev.KeyRequestFrame())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := dev.DataFrame(payload, keyResp.Payload, keyResp.Counter)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// publishBinding funds the recipient and mines its @R → IP binding.
func (c *cluster) publishBinding(t *testing.T) {
	t.Helper()
	c.fundRecipient(100_000)
	bindTx, err := c.rcptd.PublishBinding(1)
	if err != nil {
		t.Fatal(err)
	}
	c.waitPooled(c.master, bindTx.ID())
	c.mine()
}

// TestChannelDeliveryEndToEnd streams several deliveries through one
// payment channel — no block is mined between them — then settles the
// whole batch with a single on-chain close. Each channel-settled delivery
// costs exactly three append fsyncs: the payer's signed update, the
// payee's countersigned one, and the payer's ack.
func TestChannelDeliveryEndToEnd(t *testing.T) {
	c := newCluster(t)
	gwMgr, rcptMgr := c.enableChannels(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xc4, 1})

	const deliveries = 3
	heightBefore := c.master.Chain().Height()
	// The first delivery also opens the channel; count the rest, far
	// fewer appends than a store's compaction interval.
	c.uplink(t, dev, []byte("reading"))
	gwSyncs, rcptSyncs := gwMgr.store.Syncs(), rcptMgr.store.Syncs()
	for i := 1; i < deliveries; i++ {
		c.uplink(t, dev, []byte("reading"))
	}
	if got := gwMgr.store.Syncs() - gwSyncs; got != deliveries-1 {
		t.Fatalf("payee store: %d fsyncs for %d deliveries, want 1 each", got, deliveries-1)
	}
	if got := rcptMgr.store.Syncs() - rcptSyncs; got != 2*(deliveries-1) {
		t.Fatalf("payer store: %d fsyncs for %d deliveries, want 2 each", got, deliveries-1)
	}
	// Every delivery settled synchronously off-chain: the plaintext is in
	// the inbox already, with zero blocks mined in between.
	if got := len(c.rcptd.Inbox()); got != deliveries {
		t.Fatalf("inbox = %d, want %d", got, deliveries)
	}
	if got := c.master.Chain().Height(); got != heightBefore {
		t.Fatalf("height moved %d → %d during off-chain settling", heightBefore, got)
	}
	if got := c.gwd.Gateway.Stats.OffChainClaims; got != deliveries {
		t.Fatalf("gateway off-chain claims = %d, want %d", got, deliveries)
	}
	if got := c.gwd.Gateway.Stats.Claims; got != 0 {
		t.Fatalf("gateway on-chain claims = %d, want 0", got)
	}
	if got := c.rcptd.Recipient.Stats.OffChainSettles; got != deliveries {
		t.Fatalf("recipient off-chain settles = %d, want %d", got, deliveries)
	}

	// One payer channel holding all three acked updates.
	list, err := rcptMgr.ListChannels()
	if err != nil {
		t.Fatal(err)
	}
	summaries := list.([]ChannelSummary)
	if len(summaries) != 1 {
		t.Fatalf("channels = %d, want 1", len(summaries))
	}
	sum := summaries[0]
	wantPaid := uint64(deliveries) * gateway.DefaultConfig().Price
	if sum.Paid != wantPaid || sum.Version != deliveries || sum.AckedVersion != deliveries {
		t.Fatalf("channel summary = %+v, want paid %d at version %d", sum, wantPaid, deliveries)
	}

	// Confirm the funding, then close: the gateway broadcasts its latest
	// commitment and one mined block settles the whole batch.
	c.mine()
	if _, err := rcptMgr.CloseChannel(sum.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.mine()
		if got := c.gwd.Gateway.Wallet().Balance(c.gwd.Node.Ledger().UTXO()); got == wantPaid {
			break
		} else if got > wantPaid {
			t.Fatalf("gateway balance = %d, want %d", got, wantPaid)
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never received the %d batched payout", wantPaid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	info, err := rcptMgr.ChannelInfo(sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status := info.(ChannelSummary).Status; status == "open" {
		t.Fatalf("channel still open after close (status %q)", status)
	}
}

// TestChannelFailedSignPaysOnePrice fails the payer's persist mid-stream.
// The failed SignUpdate must leave the channel state as it was and retire
// the channel: the delivery falls back on-chain, and the next channel
// update pays one price, not the failed delivery's price on top.
func TestChannelFailedSignPaysOnePrice(t *testing.T) {
	c := newCluster(t)
	gwMgr, rcptMgr := c.enableChannels(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xc4, 3})
	price := gateway.DefaultConfig().Price

	c.uplink(t, dev, []byte("reading-1"))
	rcptMgr.mu.Lock()
	var payer *channel.Payer
	for _, p := range rcptMgr.payers {
		payer = p
	}
	rcptMgr.mu.Unlock()
	before := payer.State()

	// settleMu orders the store swaps with the settling rounds.
	rcptMgr.settleMu.Lock()
	if err := rcptMgr.store.Close(); err != nil {
		t.Fatal(err)
	}
	rcptMgr.settleMu.Unlock()
	c.uplink(t, dev, []byte("reading-2"))
	if after := payer.State(); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed persist moved the payer: version %d paid %d, was %d/%d",
			after.Version, after.Paid, before.Version, before.Paid)
	}
	if got := c.gwd.Gateway.Stats.Claims; got != 1 {
		t.Fatalf("gateway on-chain claims = %d, want the failed delivery's 1", got)
	}

	rcptMgr.settleMu.Lock()
	store, err := channel.OpenStore(rcptMgr.cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	rcptMgr.store = store
	rcptMgr.settleMu.Unlock()
	c.uplink(t, dev, []byte("reading-3"))

	var paid uint64
	gwMgr.mu.Lock()
	for _, g := range gwMgr.payees {
		paid += g.State().Paid
	}
	gwMgr.mu.Unlock()
	if paid != 2*price {
		t.Fatalf("gateway channels hold %d for 2 channel-settled deliveries, want %d", paid, 2*price)
	}
}

// TestChannelOpenAndPaymentsSpendDistinctCoins opens a channel while
// on-chain deliveries pay from the same recipient wallet. The funding and
// every payment must reach the pool: none may pick a coin another one
// already spent and be refused as a double spend.
func TestChannelOpenAndPaymentsSpendDistinctCoins(t *testing.T) {
	const payments = 16
	c := newCluster(t)
	_, rcptMgr := c.enableChannels(t)
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xc4, 2})
	deliveries := make([]*fairex.Delivery, payments)
	for i := range deliveries {
		var err error
		if deliveries[i], _, err = c.gwd.Gateway.HandleData(c.dataFrame(t, dev, []byte(fmt.Sprintf("reading-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}

	ledger := c.rcptd.Node.Ledger()
	txs := make([]*chain.Tx, payments+1) // the funding goes last
	errs := make([]error, payments+1)
	var wg sync.WaitGroup
	wg.Add(payments + 1)
	go func() {
		defer wg.Done()
		sum, err := rcptMgr.OpenChannel(c.gwd.Node.P2PAddr(), 0)
		if err != nil {
			errs[payments] = err
			return
		}
		id, err := chain.HashFromString(sum.(ChannelSummary).ID)
		if err != nil {
			errs[payments] = err
			return
		}
		txs[payments], _ = ledger.PendingTx(id)
	}()
	for i, d := range deliveries {
		go func() {
			defer wg.Done()
			txs[i], errs[i] = c.rcptd.Recipient.HandleDelivery(d)
		}()
	}
	wg.Wait()

	spentBy := make(map[chain.OutPoint]int)
	for i, tx := range txs {
		if errs[i] != nil {
			t.Fatalf("spend %d of %d (the last is the funding): %v", i, payments+1, errs[i])
		}
		if tx == nil {
			t.Fatalf("spend %d: not in the pool", i)
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

// TestChannelCloseAndRefundMempoolAcceptance pins the daemon mempool and
// miner behavior for the two channel-settlement transactions: a
// commitment close is accepted and mined immediately, while a CLTV
// refund is rejected as non-final until the next block height reaches
// the refund height, and accepted exactly there.
func TestChannelCloseAndRefundMempoolAcceptance(t *testing.T) {
	c := newCluster(t)
	ledger := c.master.Ledger()
	payerW := c.funds
	payeeW, err := wallet.New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// Channel 1: fund, one off-chain update, close with the commitment.
	payer, funding, err := channel.OpenPayer(payerW, ledger, nil, payeeW.PublicBytes(), 10_000, 1, 1, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	payee, err := channel.AcceptPayee(payeeW, ledger, nil, funding, payer.State().Params, "")
	if err != nil {
		t.Fatal(err)
	}
	c.mine() // confirm the funding
	u, err := payer.SignUpdate(400)
	if err != nil {
		t.Fatal(err)
	}
	gwSig, err := payee.ApplyUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := payer.NoteAck(u.Version, gwSig); err != nil {
		t.Fatal(err)
	}
	closeTx, err := payee.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ledger.PendingTx(closeTx.ID()); !ok {
		t.Fatal("close commitment not in the mempool")
	}
	c.mine()
	if _, _, ok := ledger.FindTx(closeTx.ID()); !ok {
		t.Fatal("close commitment not mined")
	}
	if got := payeeW.Balance(ledger.UTXO()); got != 400 {
		t.Fatalf("payee balance = %d, want 400", got)
	}

	// Channel 2: abandoned. The refund transaction carries
	// LockTime = refundHeight, so the mempool (validating for the next
	// block) rejects it while next height < refundHeight and accepts it
	// as soon as the next block is the refund height.
	const refundWindow = 5
	payer2, funding2, err := channel.OpenPayer(payerW, ledger, nil, payeeW.PublicBytes(), 5_000, 1, 1, refundWindow, "")
	if err != nil {
		t.Fatal(err)
	}
	refundHeight := payer2.State().RefundHeight
	c.mine() // confirm the funding
	for ledger.Height() < refundHeight-2 {
		c.mine()
	}
	refund, err := payerW.BuildRefund(
		chain.OutPoint{TxID: funding2.ID(), Index: 0}, funding2.Outputs[0], refundHeight, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Submit(refund); !errors.Is(err, chain.ErrTxNotFinal) {
		t.Fatalf("refund below CLTV height: err = %v, want ErrTxNotFinal", err)
	}
	c.mine() // next block height is now exactly refundHeight
	if err := ledger.Submit(refund); err != nil {
		t.Fatalf("refund at CLTV boundary rejected: %v", err)
	}
	c.mine()
	if _, height, ok := ledger.FindTx(refund.ID()); !ok || height != refundHeight {
		t.Fatalf("refund mined at height %d (found %v), want %d", height, ok, refundHeight)
	}
}

// TestChannelRPCMethods drives the channel subsystem through JSON-RPC:
// openchannel / getchannelinfo / listchannels / closechannel on an
// enabled daemon, and the disabled error on a bare node.
func TestChannelRPCMethods(t *testing.T) {
	c := newCluster(t)
	c.enableChannels(t)
	c.fundRecipient(50_000)

	ctx := context.Background()

	// The master never enabled channels: its methods exist but fail.
	bare := rpc.NewClient(c.master.RPCAddr())
	var out ChannelSummary
	err := bare.Call(ctx, "openchannel", &out, c.gwd.Node.P2PAddr())
	if err == nil || !strings.Contains(err.Error(), "channel subsystem disabled") {
		t.Fatalf("openchannel on bare node: %v", err)
	}

	client := rpc.NewClient(c.rcptd.Node.RPCAddr())
	if err := client.Call(ctx, "openchannel", &out, c.gwd.Node.P2PAddr(), uint64(7_000)); err != nil {
		t.Fatal(err)
	}
	if out.Status != "open" || out.Role != "payer" || out.Capacity != 7_000 {
		t.Fatalf("openchannel result = %+v", out)
	}

	var info ChannelSummary
	if err := client.Call(ctx, "getchannelinfo", &info, out.ID); err != nil {
		t.Fatal(err)
	}
	if info.ID != out.ID || info.RefundHeight != out.RefundHeight {
		t.Fatalf("getchannelinfo = %+v, want %+v", info, out)
	}

	// The gateway daemon sees the same channel from the payee side.
	gwClient := rpc.NewClient(c.gwd.Node.RPCAddr())
	var gwInfo ChannelSummary
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := gwClient.Call(ctx, "getchannelinfo", &gwInfo, out.ID); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("gateway never accepted the channel: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if gwInfo.Role != "payee" || gwInfo.Capacity != 7_000 {
		t.Fatalf("gateway getchannelinfo = %+v", gwInfo)
	}

	var list []ChannelSummary
	if err := client.Call(ctx, "listchannels", &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != out.ID {
		t.Fatalf("listchannels = %+v", list)
	}

	if err := client.Call(ctx, "closechannel", &info, out.ID); err != nil {
		t.Fatal(err)
	}
	if info.Status == "open" {
		t.Fatalf("closechannel left status %q", info.Status)
	}

	if err := client.Call(ctx, "getchannelinfo", &info, "zz-not-a-hash"); err == nil {
		t.Fatal("getchannelinfo accepted a bad id")
	}
}

// TestChannelFundRejectsShortRefundHeight drives the payee handlers
// directly with a hostile funder: an open whose refund window is below
// the gateway's floor is refused, and a funding whose RefundHeight is
// nearly reached (which would let the funder take a key and immediately
// reclaim the capacity via CLTV) never creates a channel.
func TestChannelFundRejectsShortRefundHeight(t *testing.T) {
	c := newCluster(t)
	gwMgr, _ := c.enableChannels(t)
	payerW := c.funds

	// Refund window below the payee's configured floor: refused at open.
	short := &p2p.MsgChannelOpen{RecipientPub: payerW.PublicBytes(), Capacity: 5_000, RefundWindow: 3}
	gwMgr.onChanOpen("127.0.0.1:1", p2p.Message{Type: p2p.MsgTypeChannelOpen, Payload: short.Encode()})
	gwMgr.mu.Lock()
	_, pending := gwMgr.pendingOpens["127.0.0.1:1"]
	gwMgr.mu.Unlock()
	if pending {
		t.Fatal("gateway accepted an open below its refund-window floor")
	}

	// Honest open terms, then a funding that shrinks the refund height.
	open := &p2p.MsgChannelOpen{
		RecipientPub: payerW.PublicBytes(),
		Capacity:     5_000,
		RefundWindow: DefaultChannelConfig().RefundWindow,
	}
	gwMgr.onChanOpen("127.0.0.1:1", p2p.Message{Type: p2p.MsgTypeChannelOpen, Payload: open.Encode()})
	height := c.gwd.Node.Ledger().Height()
	params := channel.Params{
		GatewayPub:   c.gwd.Gateway.Wallet().PublicBytes(),
		RecipientPub: payerW.PublicBytes(),
		Capacity:     5_000,
		CloseFee:     1,
		RefundHeight: height + 1,
	}
	funding, err := payerW.BuildChannelFunding(c.gwd.Node.Ledger().UTXO(), params.ScriptParams(), 5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fund := &p2p.MsgChannelFund{
		ChannelID:    funding.ID(),
		RefundHeight: height + 1,
		CloseFee:     1,
		FundingTx:    funding.Serialize(),
	}
	gwMgr.onChanFund("127.0.0.1:1", p2p.Message{Type: p2p.MsgTypeChannelFund, Payload: fund.Encode()})
	list, err := gwMgr.ListChannels()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(list.([]ChannelSummary)); got != 0 {
		t.Fatalf("gateway opened %d channels on a near-expiry funding, want 0", got)
	}
}

// TestChannelPayeeClosesBeforeRefundDeadline runs a channel into its CLTV
// deadline: the gateway's block subscriber must broadcast its commitment
// within CloseMargin of the refund height, and the payer must never
// confiscate the acked balance through the full-capacity refund.
func TestChannelPayeeClosesBeforeRefundDeadline(t *testing.T) {
	c := newCluster(t)
	ccfg := DefaultChannelConfig()
	ccfg.RefundWindow = 12
	ccfg.CloseMargin = 4
	if _, err := c.gwd.EnableChannels(ccfg); err != nil {
		t.Fatal(err)
	}
	rcptMgr, err := c.rcptd.EnableChannels(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xc4, 9})
	c.uplink(t, dev, []byte("reading"))
	wantPaid := gateway.DefaultConfig().Price

	list, err := rcptMgr.ListChannels()
	if err != nil {
		t.Fatal(err)
	}
	summaries := list.([]ChannelSummary)
	if len(summaries) != 1 {
		t.Fatalf("channels = %d, want 1", len(summaries))
	}
	refundHeight := summaries[0].RefundHeight

	// Mine through the deadline and past the refund height: the payee's
	// deadline close must land, crediting exactly the earned balance.
	deadline := time.Now().Add(20 * time.Second)
	for {
		c.mine()
		bal := c.gwd.Gateway.Wallet().Balance(c.master.Ledger().UTXO())
		if bal == wantPaid && c.master.Chain().Height() > refundHeight+1 {
			break
		}
		if bal > wantPaid {
			t.Fatalf("gateway balance = %d, want %d", bal, wantPaid)
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway balance = %d at height %d, want %d before refund height %d",
				bal, c.master.Chain().Height(), wantPaid, refundHeight)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The payer side never refunded the channel out from under the payee.
	info, err := rcptMgr.ChannelInfo(summaries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if status := info.(ChannelSummary).Status; status == "refunded" {
		t.Fatalf("payer refunded a channel with an acked balance (status %q)", status)
	}
	if got := c.gwd.Gateway.Wallet().Balance(c.master.Ledger().UTXO()); got != wantPaid {
		t.Fatalf("gateway balance after refund window = %d, want %d", got, wantPaid)
	}
}

// TestChannelOfferIgnoredByOnChainRecipient covers the mixed
// federation: a recipient that never called EnableChannels settles every
// delivery through the on-chain path even when the gateway advertises a
// channel endpoint.
func TestChannelOfferIgnoredByOnChainRecipient(t *testing.T) {
	c := newCluster(t)
	if _, err := c.gwd.EnableChannels(DefaultChannelConfig()); err != nil {
		t.Fatal(err)
	}

	c.publishBinding(t)
	dev := c.provisionSensor(t, lora.DevEUI{0xc4, 2})
	received := make(chan *recipient.Message, 1)
	c.rcptd.OnReceive(func(m *recipient.Message) { received <- m })
	c.uplink(t, dev, []byte("on-chain"))

	// The on-chain exchange needs the claim mined before it settles.
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.mine()
		select {
		case msg := <-received:
			if string(msg.Plaintext) != "on-chain" {
				t.Fatalf("plaintext = %q", msg.Plaintext)
			}
			if got := c.gwd.Gateway.Stats.OffChainClaims; got != 0 {
				t.Fatalf("off-chain claims = %d, want 0", got)
			}
			if got := c.gwd.Gateway.Stats.Claims; got != 1 {
				t.Fatalf("on-chain claims = %d, want 1", got)
			}
			return
		default:
			if time.Now().After(deadline) {
				t.Fatal("exchange never settled on-chain")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
