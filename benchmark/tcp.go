package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bcwan/internal/chain"
	"bcwan/internal/daemon"
	"bcwan/internal/gateway"
)

// Warm-up sizes: deliveries per stream before the window opens.
const (
	channelWarmup = 20
	onchainWarmup = 10
)

// tcpWorkload is the five-node federation driven one of two ways:
//
// tcp_channel (channels set): both streams run closed loops of their own;
// every reading settles through a payment-channel update, and no block
// is mined inside the window.
//
// tcp_onchain: lockstep rounds — both streams uplink concurrently, the
// harness waits for the four transactions in the miner's pool, mines,
// waits for all five nodes to adopt, and both readings arrive through
// OnReceive. Lockstep is deliberate: a block landing between a gateway's
// offer and the recipient's payment fails at baseline (README).
type tcpWorkload struct {
	cfg      runConfig
	channels bool
	fed      *federation

	// Counter baselines, taken after warm-up.
	baseTelemetry map[string]float64
	baseSyncs     uint64
	baseDisk      int64
	// warm is set once set-up is over; the corruption hook waits for it.
	warm bool
}

func newTCPWorkload(cfg runConfig, channels bool) *tcpWorkload {
	return &tcpWorkload{cfg: cfg, channels: channels}
}

func (w *tcpWorkload) slice(_ time.Duration, traced bool) time.Duration { return sliceLength(traced) }

func (w *tcpWorkload) costPrefix() int {
	if w.channels {
		return 2000
	}
	return 400
}

func (w *tcpWorkload) setup() error {
	fed, err := newFederation(filepath.Join(w.cfg.dataDir, "federation"), w.channels)
	if err != nil {
		return err
	}
	w.fed = fed
	chWarm, ocWarm := channelWarmup, onchainWarmup
	if w.cfg.quick {
		chWarm, ocWarm = 2, 1
	}
	if w.channels {
		if err := w.openChannels(); err != nil {
			return err
		}
		if t := w.runChannel(time.Minute, streamCount*chWarm, nil); t.failed() > 0 {
			return fmt.Errorf("%d of %d warm-up deliveries failed", t.failed(), t.attempted)
		}
	} else {
		for i := 0; i < ocWarm; i++ {
			if att, ok, _ := w.round(nil); ok != att {
				return fmt.Errorf("warm-up round %d: %d of %d deliveries failed", i, att-ok, att)
			}
		}
	}
	w.baseTelemetry = telemetrySums(fed.registries())
	w.baseSyncs = fed.storeSyncs()
	w.baseDisk = fed.diskBytes()
	w.warm = true
	return nil
}

// openChannels sends each stream's first reading, which opens and funds
// its channel, then confirms both funding anchors in one block.
func (w *tcpWorkload) openChannels() error {
	for _, s := range w.fed.streams {
		if _, err := w.channelOp(s, nil); err != nil {
			return fmt.Errorf("stream %d first delivery: %w", s.id, err)
		}
	}
	for i, mgr := range w.fed.rcMgrs {
		list, err := mgr.ListChannels()
		if err != nil {
			return err
		}
		summaries := list.([]daemon.ChannelSummary)
		if len(summaries) != 1 {
			return fmt.Errorf("recipient %d holds %d channels after its first delivery, want 1", i, len(summaries))
		}
		id, err := chain.HashFromString(summaries[0].ID)
		if err != nil {
			return err
		}
		if err := w.fed.waitPooled(id); err != nil {
			return err
		}
	}
	return w.fed.mine()
}

// expect is the plaintext the stream's latest reading must arrive as;
// the smoke test's corruption hook spoils every n-th one.
func (w *tcpWorkload) expect(s *stream, want []byte) []byte {
	if n := w.cfg.corruptEvery; w.warm && n > 0 && int(s.seq-1)%n == 0 {
		return spoiled(want)
	}
	return want
}

// channelOp delivers one reading on a stream and returns its latency:
// key-request hand-off to verified plaintext at OnReceive.
func (w *tcpWorkload) channelOp(s *stream, tr *tracer) (time.Duration, error) {
	var (
		t    opTimes
		want []byte
	)
	err, timedOut, returned := deadlineCall(func() (err error) {
		t, want, err = s.uplink(w.cfg.seed)
		return err
	})
	if timedOut {
		s.stuck = returned
		s.failed++
		return 0, fmt.Errorf("stream %d: uplink exceeded %s", s.id, opDeadline)
	}
	if err != nil {
		s.failed++
		return 0, err
	}
	at, err := s.await(t, w.expect(s, want), t.start.Add(opDeadline))
	if err != nil {
		s.failed++
		return 0, err
	}
	s.verified++
	if tr != nil {
		root := t.trace(tr, at)
		if at.After(t.acked) {
			tr.add("daemon.ack_to_inbox", t.acked, at, root, t.exchange)
		} else {
			tr.add("daemon.ack_to_inbox", at, at, root, t.exchange)
		}
	}
	return at.Sub(t.start), nil
}

// runChannel runs every stream as its own closed loop, for d or (when
// limit is positive) until limit deliveries were verified between them.
func (w *tcpWorkload) runChannel(d time.Duration, limit int, tr *tracer) tally {
	start := time.Now()
	parts := make([]tally, len(w.fed.streams))
	var (
		wg   sync.WaitGroup
		done atomic.Int64
	)
	for i, s := range w.fed.streams {
		wg.Add(1)
		go func(t *tally, s *stream) {
			defer wg.Done()
			t.latencies = make([]time.Duration, 0, 1<<9)
			for time.Since(start) < d {
				// Claim the delivery before starting it, so the streams stop
				// at exactly limit between them.
				if limit > 0 && done.Add(1) > int64(limit) {
					return
				}
				if s.isStuck() {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				lat, err := w.channelOp(s, tr)
				t.attempted++
				if err == nil {
					t.verified++
					t.latencies = append(t.latencies, lat)
				}
			}
		}(&parts[i], s)
	}
	wg.Wait()
	var total tally
	for _, p := range parts {
		total.add(p)
	}
	total.wall = time.Since(start)
	return total
}

// round is one lockstep on-chain round over every stream that is not
// stuck. It returns how many deliveries it attempted and verified and
// their latencies.
func (w *tcpWorkload) round(tr *tracer) (attempted, verified int, lats []time.Duration) {
	type result struct {
		s        *stream
		t        opTimes
		want     []byte
		err      error
		timedOut bool
		returned <-chan struct{}
	}
	results := make(chan result, len(w.fed.streams))
	for _, s := range w.fed.streams {
		if s.isStuck() {
			continue
		}
		attempted++
		go func(s *stream) {
			var (
				t    opTimes
				want []byte
			)
			r := result{s: s}
			r.err, r.timedOut, r.returned = deadlineCall(func() (err error) {
				t, want, err = s.uplink(w.cfg.seed)
				return err
			})
			if !r.timedOut {
				// A timed-out uplink may still be writing t and want.
				r.t, r.want = t, want
			}
			results <- r
		}(s)
	}
	if attempted == 0 {
		time.Sleep(10 * time.Millisecond)
		return 0, 0, nil
	}
	var uplinked []result
	for i := 0; i < attempted; i++ {
		r := <-results
		switch {
		case r.timedOut:
			r.s.stuck = r.returned
			r.s.failed++
		case r.err != nil:
			r.s.failed++
		default:
			r.want = w.expect(r.s, r.want)
			uplinked = append(uplinked, r)
		}
	}
	if len(uplinked) == 0 {
		return attempted, 0, nil
	}
	allAcked := time.Now()

	// Each delivery left a payment and a claim; the miner must see all of
	// them before the block is worth mining.
	pool := w.fed.miner().Ledger().Pool
	waitFor(nil, func() bool { return pool.Len() >= 2*len(uplinked) })
	pooled := time.Now()
	b, err := w.fed.miner().MineNow()
	mined := time.Now()
	if err == nil {
		w.fed.waitHeight(b.Header.Height)
	}
	adopted := time.Now()

	for _, r := range uplinked {
		at, err := r.s.await(r.t, r.want, adopted.Add(opDeadline))
		if err != nil {
			r.s.failed++
			continue
		}
		r.s.verified++
		verified++
		lats = append(lats, at.Sub(r.t.start))
		if tr != nil {
			x := r.t.exchange
			root := r.t.trace(tr, at)
			tr.add("harness.round_wait", r.t.acked, allAcked, root, x)
			tr.add("daemon.tx_propagate", allAcked, pooled, root, x)
			tr.add("daemon.mine", pooled, mined, root, x)
			tr.add("daemon.block_propagate", mined, adopted, root, x)
			if at.After(adopted) {
				tr.add("daemon.ack_to_inbox", adopted, at, root, x)
			}
		}
	}
	return attempted, verified, lats
}

func (w *tcpWorkload) run(d time.Duration, limit int, tr *tracer) tally {
	if w.channels {
		return w.runChannel(d, limit, tr)
	}
	var t tally
	t.latencies = make([]time.Duration, 0, 1<<7)
	start := time.Now()
	for time.Since(start) < d && (limit <= 0 || t.verified < limit) {
		att, ok, lats := w.round(tr)
		t.attempted += att
		t.verified += ok
		t.latencies = append(t.latencies, lats...)
	}
	t.wall = time.Since(start)
	return t
}

func (w *tcpWorkload) verify(total tally) []string {
	var problems []string
	gcfg := gateway.DefaultConfig()
	for i, s := range w.fed.streams {
		// Every reading exactly once, byte-equal, in order.
		msgs := s.rc.Inbox()
		inbox := make([][]byte, len(msgs))
		for j, m := range msgs {
			inbox[j] = m.Plaintext
		}
		if err := checkInbox(w.cfg.seed, s.id, inbox, s.seq, s.failed); err != nil {
			problems = append(problems, err.Error())
		}
		if len(inbox) < s.verified {
			problems = append(problems, fmt.Sprintf("stream %d: inbox holds %d readings, harness verified %d", s.id, len(inbox), s.verified))
		}
		if s.strays > s.failed || s.overflow.Load() > 0 {
			problems = append(problems, fmt.Sprintf("stream %d: %d arrivals nobody waited for (%d operations failed)", s.id, s.strays, s.failed))
		}

		// The gateway earned the price of every delivery, no more.
		var earned, per uint64
		if w.channels {
			per = gcfg.Price
			list, err := w.fed.gwMgrs[i].ListChannels()
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			for _, c := range list.([]daemon.ChannelSummary) {
				earned += c.Paid
			}
		} else {
			per = gcfg.Price - gcfg.ClaimFee
			earned = s.gw.Gateway.Wallet().Balance(w.fed.miner().Ledger().UTXO())
		}
		if lo, hi := uint64(len(inbox))*per, uint64(s.seq)*per; earned < lo || earned > hi || s.failed == 0 && earned != hi {
			problems = append(problems, fmt.Sprintf("gateway %d earned %d for %d readings sent, %d in the inbox at %d each", i, earned, s.seq, len(inbox), per))
		}
	}
	if err := w.fed.miner().Chain().CheckConsistency(); err != nil {
		problems = append(problems, "miner chain consistency: "+err.Error())
	}
	return problems
}

func (w *tcpWorkload) layers(m metricSet, tr *tracer, total tally) {
	f := w.fed
	per := float64(total.verified)
	m["daemon.uplink_keyreq_ms"] = ms(tr.meanOf("daemon.uplink_keyreq"))
	m["device.dataframe_us"] = us(tr.meanOf("device.dataframe"))
	m["daemon.uplink_data_ms"] = ms(tr.meanOf("daemon.uplink_data"))
	m["daemon.ack_to_inbox_ms"] = ms(tr.meanOf("daemon.ack_to_inbox"))
	m["daemon.tx_propagate_ms"] = ms(tr.meanOf("daemon.tx_propagate"))
	m["daemon.mine_ms"] = ms(tr.meanOf("daemon.mine"))
	m["chain.mine_us"] = us(tr.meanOf("daemon.mine"))
	m["daemon.block_propagate_ms"] = ms(tr.meanOf("daemon.block_propagate"))

	now := telemetrySums(f.registries())
	delta := func(name string) float64 { return now[name] - w.baseTelemetry[name] }
	if rx := delta("bcwan_daemon_cmpct_received_total"); rx > 0 {
		m["daemon.cmpct_hit_ratio"] = delta("bcwan_daemon_cmpct_hits_total") / rx
	}
	m["p2p.msgs_per_delivery"] = delta("bcwan_p2p_messages_out_total") / per
	m["p2p.bytes_per_delivery"] = delta("bcwan_p2p_bytes_out_total") / per
	// Both ends count an update; a delivery is one update between them.
	m["channel.updates_per_delivery"] = delta("bcwan_daemon_channel_updates_total") / 2 / per
	m["chain.sigcache_hit_ratio"] = sigcacheHitRatio(now, w.baseTelemetry)
	m["store.fsyncs_per_delivery"] = float64(f.storeSyncs()-w.baseSyncs) / per
	if n := delta("bcwan_daemon_store_append_seconds_count"); n > 0 {
		m["store.append_ms"] = delta("bcwan_daemon_store_append_seconds") / n * 1000
	}
	m["store.bytes_per_delivery"] = float64(f.diskBytes()-w.baseDisk) / per

	chainProbes(m, w.cfg, chainState{
		ledger:    f.miner().Ledger(),
		directory: f.miner().Directory(),
		payer:     f.rcs[0].Recipient.Wallet(),
		gatewayID: f.gws[0].Gateway.Wallet().PubKeyHash(),
		mine:      f.mine,
	})
	if !w.channels {
		m["sync.join_ms"] = w.joinProbe()
	}
	m["store.reload_ms"] = w.reloadProbe()
}

// joinProbe starts a fresh sixth node and times it to the federation's
// tip. The sync machine runs on timers, so the figure is quantised by
// its retry tick: diagnostic only.
func (w *tcpWorkload) joinProbe() float64 {
	f := w.fed
	tip := f.miner().Chain().Height()
	peers := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		peers[i] = n.P2PAddr()
	}
	start := time.Now()
	n, err := daemon.NewNode(f.nodeConfig(peers))
	if err != nil {
		return 0
	}
	defer n.Close()
	if !waitFor(nil, func() bool { return n.Chain().Height() >= tip }) {
		return 0
	}
	return ms(time.Since(start))
}

// reloadProbe closes the first gateway's node and times a new node
// opening the same directory; the restored block count is checked
// against the height the node had. It runs last: the gateway daemon is
// gone afterwards.
func (w *tcpWorkload) reloadProbe() float64 {
	f := w.fed
	old := f.nodes[1]
	height := old.Chain().Height()
	old.Close()
	n, err := daemon.NewNode(f.nodeConfig(nil))
	if err != nil {
		return 0
	}
	f.nodes[1] = n
	start := time.Now()
	restored, err := n.Open(f.nodeDir(1))
	el := time.Since(start)
	if err != nil || int64(restored) != height || n.Chain().Height() != height {
		return 0
	}
	return ms(el)
}

func (w *tcpWorkload) teardown() {
	if w.fed != nil {
		w.fed.close()
	}
}
