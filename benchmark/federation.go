package main

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/device"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// streamCount is the number of concurrent device streams: device i →
// gateway daemon i → recipient daemon i. Two, because the host has two
// CPUs and because two deliveries racing into one recipient wallet
// double-spend its change at baseline (README, "hazards").
const streamCount = 2

// pollInterval is how often the harness re-checks a condition it has no
// event for (the miner's pool size).
const pollInterval = 500 * time.Microsecond

// federation is five daemon.Nodes over default TCP p2p on loopback — one
// miner, two gateway daemons, two recipient daemons — every node opened
// on disk under dir.
type federation struct {
	dir      string
	params   chain.Params
	genesis  *chain.Block
	minerKey *bccrypto.ECKey
	treasury *wallet.Wallet

	// nodes[0] is the miner; then gateways, then recipients.
	nodes   []*daemon.Node
	gws     []*daemon.GatewayDaemon
	rcs     []*daemon.RecipientDaemon
	gwMgrs  []*daemon.ChannelManager
	rcMgrs  []*daemon.ChannelManager
	streams []*stream
	// adopted is pulsed whenever any node connects a block.
	adopted chan struct{}
}

func (f *federation) miner() *daemon.Node { return f.nodes[0] }

func (f *federation) nodeConfig(peers []string) daemon.NodeConfig {
	return daemon.NodeConfig{
		Genesis: f.genesis,
		Params:  f.params,
		Miners:  [][]byte{f.minerKey.PublicBytes()},
		Peers:   peers,
	}
}

func (f *federation) nodeDir(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("node-%d", i))
}

// startNode starts node i, dials every earlier node and opens its store.
func (f *federation) startNode(i int, cfg daemon.NodeConfig) (*daemon.Node, error) {
	n, err := daemon.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := n.Open(f.nodeDir(i)); err != nil {
		n.Close()
		return nil, err
	}
	n.Chain().Subscribe(func(*chain.Block) {
		select {
		case f.adopted <- struct{}{}:
		default:
		}
	})
	return n, nil
}

// newFederation builds the five nodes and their daemons, funds both
// recipients, confirms their directory bindings and provisions the
// sensors. withChannels enables channel settlement on every daemon, with
// on-disk channel stores.
func newFederation(dir string, withChannels bool) (*federation, error) {
	f := &federation{dir: dir, params: chain.DefaultParams(), adopted: make(chan struct{}, 1)}
	if err := f.build(withChannels); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *federation) build(withChannels bool) error {
	var err error
	if f.treasury, err = wallet.New(rand.Reader); err != nil {
		return err
	}
	if f.minerKey, err = bccrypto.GenerateECKey(rand.Reader); err != nil {
		return err
	}
	f.genesis = chain.GenesisBlock(map[[20]byte]uint64{f.treasury.PubKeyHash(): 1_000_000_000})

	var peers []string
	for i := 0; i < 1+2*streamCount; i++ {
		cfg := f.nodeConfig(peers)
		if i == 0 {
			cfg.MinerKey = f.minerKey
			cfg.MineInterval = time.Hour // the harness mines explicitly
		}
		n, err := f.startNode(i, cfg)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		peers = append(peers, n.P2PAddr())
	}
	for i := 0; i < streamCount; i++ {
		gwd, err := daemon.NewGatewayDaemon(f.nodes[1+i], gateway.DefaultConfig(), nil, nil)
		if err != nil {
			return err
		}
		f.gws = append(f.gws, gwd)
	}
	for i := 0; i < streamCount; i++ {
		rcd, err := daemon.NewRecipientDaemon(f.nodes[1+streamCount+i], recipient.DefaultConfig(), "127.0.0.1:0", nil, nil)
		if err != nil {
			return err
		}
		f.rcs = append(f.rcs, rcd)
	}
	if withChannels {
		for i := 0; i < streamCount; i++ {
			ccfg := daemon.DefaultChannelConfig()
			// One channel carries the whole run: no roll-over, so no block
			// is needed inside the window.
			ccfg.Capacity = 50_000_000
			ccfg.StoreDir = filepath.Join(f.nodeDir(1+i), "channels")
			gm, err := f.gws[i].EnableChannels(ccfg)
			if err != nil {
				return err
			}
			ccfg.StoreDir = filepath.Join(f.nodeDir(1+streamCount+i), "channels")
			rm, err := f.rcs[i].EnableChannels(ccfg)
			if err != nil {
				return err
			}
			f.gwMgrs, f.rcMgrs = append(f.gwMgrs, gm), append(f.rcMgrs, rm)
		}
	}

	// Fund both recipients in one block, then confirm both bindings in
	// the next.
	for _, rcd := range f.rcs {
		tx, err := f.treasury.BuildPayment(f.miner().Ledger().UTXO(), rcd.Recipient.Wallet().PubKeyHash(), 100_000_000, 1)
		if err == nil {
			err = f.miner().Ledger().Submit(tx)
		}
		if err != nil {
			return fmt.Errorf("fund recipient: %w", err)
		}
	}
	if err := f.mine(); err != nil {
		return err
	}
	for _, rcd := range f.rcs {
		tx, err := rcd.PublishBinding(1)
		if err == nil {
			err = f.waitPooled(tx.ID())
		}
		if err != nil {
			return fmt.Errorf("publish binding: %w", err)
		}
	}
	if err := f.mine(); err != nil {
		return err
	}

	for i := 0; i < streamCount; i++ {
		s := &stream{id: uint32(i), gw: f.gws[i], rc: f.rcs[i], arrivals: make(chan arrival, 64)}
		for d := 0; d < devicesPerStream; d++ {
			dev, err := provisionDevice(s.rc.Recipient, lora.DevEUI{0xbc, byte(i), byte(d)})
			if err != nil {
				return err
			}
			s.devs = append(s.devs, dev)
		}
		s.rc.OnReceive(func(msg *recipient.Message) {
			a := arrival{at: time.Now(), msg: msg}
			select {
			case s.arrivals <- a:
			default:
				s.overflow.Add(1)
			}
		})
		f.streams = append(f.streams, s)
	}
	return nil
}

// waitFor polls cond until it holds or opDeadline passes. wake, when
// non-nil, cuts a poll short.
func waitFor(wake <-chan struct{}, cond func() bool) bool {
	deadline := time.Now().Add(opDeadline)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-wake:
		case <-tick.C:
		}
	}
	return true
}

// mine mints one block on the miner and waits for every node to adopt it.
func (f *federation) mine() error {
	b, err := f.miner().MineNow()
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	if !f.waitHeight(b.Header.Height) {
		return fmt.Errorf("block %d not adopted by every node within %s", b.Header.Height, opDeadline)
	}
	return nil
}

func (f *federation) waitHeight(h int64) bool {
	return waitFor(f.adopted, func() bool {
		for _, n := range f.nodes {
			if n.Chain().Height() < h {
				return false
			}
		}
		return true
	})
}

// waitPooled waits for a transaction to reach the miner's pool.
func (f *federation) waitPooled(id chain.Hash) error {
	if !waitFor(nil, func() bool { _, ok := f.miner().Ledger().PendingTx(id); return ok }) {
		return fmt.Errorf("tx %s never reached the miner's pool", id)
	}
	return nil
}

func (f *federation) registries() []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(f.nodes))
	for i, n := range f.nodes {
		regs[i] = n.Telemetry()
	}
	return regs
}

// storeSyncs sums the fsyncs of every node's block log.
func (f *federation) storeSyncs() uint64 {
	var n uint64
	for _, node := range f.nodes {
		n += node.Store().Syncs()
	}
	return n
}

// diskBytes is the size of everything under the federation's directory.
func (f *federation) diskBytes() int64 {
	var total int64
	// A file that vanishes mid-walk (a store's temp file) is skipped, so
	// the walk itself cannot fail.
	_ = filepath.Walk(f.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func (f *federation) close() {
	for _, rcd := range f.rcs {
		rcd.Close()
	}
	for _, n := range f.nodes {
		n.Close()
	}
	os.RemoveAll(f.dir)
}

// arrival is one OnReceive callback.
type arrival struct {
	at  time.Time
	msg *recipient.Message
}

// stream is one device population → gateway daemon → recipient daemon
// path, driven by one caller at a time.
type stream struct {
	id       uint32
	gw       *daemon.GatewayDaemon
	rc       *daemon.RecipientDaemon
	devs     []*device.Device
	arrivals chan arrival
	overflow atomic.Int64

	// seq numbers the readings sent, warm-up included.
	seq uint32
	// stuck is non-nil while a timed-out uplink has not returned yet.
	stuck <-chan struct{}
	// verified counts readings whose plaintext checked out at OnReceive,
	// failed operations that did not get that far, strays arrivals nobody
	// was waiting for.
	verified, failed, strays int
}

// opTimes are the harness-side timestamps of one uplink.
type opTimes struct {
	eui                              lora.DevEUI
	exchange                         string
	start, keyDone, frameDone, acked time.Time
}

// trace records a delivery that arrived at the recipient at `at` and the
// uplink's three harness-side steps under it; it returns the delivery's
// span for the caller's further steps.
func (t opTimes) trace(tr *tracer, at time.Time) int {
	root := tr.add("delivery", t.start, at, -1, t.exchange)
	tr.add("daemon.uplink_keyreq", t.start, t.keyDone, root, t.exchange)
	tr.add("device.dataframe", t.keyDone, t.frameDone, root, t.exchange)
	tr.add("daemon.uplink_data", t.frameDone, t.acked, root, t.exchange)
	return root
}

// isStuck reports whether an earlier timed-out call is still running.
func (s *stream) isStuck() bool {
	if s.stuck == nil {
		return false
	}
	select {
	case <-s.stuck:
		s.stuck = nil
		return false
	default:
		return true
	}
}

// uplink hands the next reading to the gateway daemon: key request,
// double-encrypted data frame, delivery. It returns once HandleUplink
// has, which for channel settlement is after the ack and for on-chain
// settlement after the claim was submitted.
func (s *stream) uplink(seed int64) (opTimes, []byte, error) {
	seq := s.seq
	s.seq++
	want := reading(seed, s.id, seq)
	dev := s.devs[pickDevice(seed, s.id, seq)]
	for len(s.arrivals) > 0 {
		<-s.arrivals
		s.strays++
	}
	t := opTimes{eui: dev.EUI(), start: time.Now()}
	req := dev.KeyRequestFrame()
	t.exchange = exchangeID(req.DevEUI, req.Counter)
	keyResp, err := s.gw.HandleUplink(req)
	t.keyDone = time.Now()
	if err != nil {
		return t, want, fmt.Errorf("key request: %w", err)
	}
	frame, err := dev.DataFrame(want, keyResp.Payload, keyResp.Counter)
	t.frameDone = time.Now()
	if err != nil {
		return t, want, fmt.Errorf("data frame: %w", err)
	}
	_, err = s.gw.HandleUplink(frame)
	t.acked = time.Now()
	if err != nil {
		return t, want, fmt.Errorf("deliver: %w", err)
	}
	return t, want, nil
}

var errNoArrival = errors.New("reading never reached the recipient's OnReceive")

// await waits for the recipient to hand over the decrypted reading and
// checks it byte for byte. Arrival is observed through OnReceive only:
// the channel branch acks the gateway before it appends to the inbox.
func (s *stream) await(t opTimes, want []byte, until time.Time) (time.Time, error) {
	timer := time.NewTimer(time.Until(until))
	defer timer.Stop()
	select {
	case a := <-s.arrivals:
		if a.msg.DevEUI != t.eui || !bytes.Equal(a.msg.Plaintext, want) {
			return a.at, fmt.Errorf("stream %d: recipient decrypted %x from %s, want %x from %s",
				s.id, a.msg.Plaintext, a.msg.DevEUI, want, t.eui)
		}
		return a.at, nil
	case <-timer.C:
		return time.Time{}, errNoArrival
	}
}
