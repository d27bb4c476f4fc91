package main

import (
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/channel"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/registry"
	"bcwan/internal/script"
	"bcwan/internal/simtime"
	"bcwan/internal/telemetry"
	"bcwan/internal/wallet"
)

// probeCalls is how many direct calls each per-layer probe times.
func (c runConfig) probeCalls() int {
	if c.quick {
		return 20
	}
	return 200
}

// timeCalls returns the mean duration of n calls of fn.
func timeCalls(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// directProbes times the layers that need no workload state: the four
// crypto primitives an exchange is made of, a standalone payment channel
// over an on-disk store, and the protocol-free radio and timer models.
// They run the same way at the end of every traced run.
func directProbes(m metricSet, cfg runConfig) {
	n := cfg.probeCalls()
	cryptoProbes(m, n)
	if err := channelProbes(m, n, filepath.Join(cfg.dataDir, "probe-channel")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: channel probe:", err)
	}
	radioProbes(m, cfg)
}

func cryptoProbes(m metricSet, probeCalls int) {
	shared := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(shared); err != nil {
		return
	}
	signing, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		return
	}
	var eph *bccrypto.RSA512PrivateKey
	m["bccrypto.keygen_us"] = us(timeCalls(probeCalls, func() {
		eph, _ = bccrypto.GenerateRSA512(rand.Reader)
	}))
	if eph == nil {
		return
	}
	pub := eph.Public()
	pubBytes := bccrypto.MarshalRSA512PublicKey(pub)
	plaintext := reading(1, 0, 0)
	var em []byte
	// What the sensor does per reading: AES frame, RSA layer, signature.
	m["bccrypto.encrypt_sign_us"] = us(timeCalls(probeCalls, func() {
		frame, _ := bccrypto.EncryptFrame(rand.Reader, shared, plaintext)
		em, _ = bccrypto.EncryptRSA512(rand.Reader, pub, frame)
		bccrypto.SignRSA512(signing, append(append([]byte(nil), em...), pubBytes...))
	}))
	// What the recipient does once the key is disclosed.
	m["bccrypto.decrypt_us"] = us(timeCalls(probeCalls, func() {
		frame, _ := bccrypto.DecryptRSA512(eph, em)
		_, _ = bccrypto.DecryptFrame(shared, frame) // timing only
	}))
	// OP_CHECKRSA512PAIR's work, once per claim per validating node.
	m["bccrypto.pair_verify_us"] = us(timeCalls(probeCalls, func() { eph.MatchesPublic(pub) }))
}

// channelProbes opens one payer/payee pair over a private in-memory
// chain with an on-disk store and times the update round's two halves.
// Both halves persist before they return, so each includes a store save.
func channelProbes(m metricSet, probeCalls int, dir string) error {
	payerW, err := wallet.New(rand.Reader)
	if err != nil {
		return err
	}
	payeeW, err := wallet.New(rand.Reader)
	if err != nil {
		return err
	}
	c, err := chain.New(chain.DefaultParams(), chain.GenesisBlock(map[[20]byte]uint64{payerW.PubKeyHash(): 10_000_000}))
	if err != nil {
		return err
	}
	pool := chain.NewMempool()
	pool.UseVerifier(c.Verifier())
	ledger := &fairex.Node{Chain: c, Pool: pool}
	store, err := channel.OpenStore(dir)
	if err != nil {
		return err
	}
	payer, funding, err := channel.OpenPayer(payerW, ledger, store, payeeW.PublicBytes(), 5_000_000, 1, 1, 100, "")
	if err != nil {
		return err
	}
	payee, err := channel.AcceptPayee(payeeW, ledger, store, funding, payer.State().Params, "")
	if err != nil {
		return err
	}
	var sign, apply time.Duration
	for i := 0; i < probeCalls; i++ {
		t0 := time.Now()
		u, err := payer.SignUpdate(100)
		t1 := time.Now()
		if err != nil {
			return err
		}
		sig, err := payee.ApplyUpdate(u)
		t2 := time.Now()
		if err != nil {
			return err
		}
		if err := payer.NoteAck(u.Version, sig); err != nil {
			return err
		}
		sign += t1.Sub(t0)
		apply += t2.Sub(t1)
	}
	m["channel.sign_update_us"] = us(sign / time.Duration(probeCalls))
	m["channel.apply_update_us"] = us(apply / time.Duration(probeCalls))
	st := payee.State()
	var saveErr error
	m["channel.store_save_us"] = us(timeCalls(probeCalls, func() {
		if err := store.Save(&st); err != nil {
			saveErr = err
		}
	}))
	return saveErr
}

// radioProbes times the two simulator substrates with no protocol on
// top: 1000 radios transmitting for ten virtual minutes, and 100k timers
// scheduled and fired.
func radioProbes(m metricSet, cfg runConfig) {
	const radios = 1000
	seed, horizon := cfg.seed, 10*time.Minute
	if cfg.quick {
		horizon = time.Minute
	}
	origin := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	sched := simtime.NewScheduler(origin)
	ch := lora.NewChannel(sched, lora.DefaultPathLoss(), lora.DefaultPHY())
	payload := make([]byte, 148)
	for i := 0; i < radios; i++ {
		side := uint32(i)
		pos := lora.Position{
			X: float64(mix(seed, 1, side)%60_000) - 30_000,
			Y: float64(mix(seed, 2, side)%60_000) - 30_000,
		}
		r := ch.NewRadio(fmt.Sprintf("probe-%d", i), pos)
		r.OnReceive(func(lora.RxFrame) {})
		period := 20*time.Second + time.Duration(mix(seed, 3, side)%uint64(20*time.Second))
		var tick func(time.Time)
		tick = func(time.Time) {
			_, _ = r.Transmit(payload, lora.SF7, 868_100_000) // a fixed, legal payload
			sched.After(period, tick)
		}
		sched.After(time.Duration(mix(seed, 4, side)%uint64(period)), tick)
	}
	start := time.Now()
	sched.RunUntil(origin.Add(horizon))
	if n := ch.Stats.Transmissions; n > 0 {
		m["lora.tx_us"] = us(time.Since(start)) / float64(n)
	}

	const timers = 100_000
	sched = simtime.NewScheduler(origin)
	fired := 0
	start = time.Now()
	for i := 0; i < timers; i++ {
		sched.After(time.Duration(mix(seed, 5, uint32(i))%uint64(time.Hour)), func(time.Time) { fired++ })
	}
	sched.Run()
	if fired == timers {
		m["simtime.timer_ns"] = float64(time.Since(start)) / timers
	}
}

// chainState is the workload-produced state the chain-path probes run on.
type chainState struct {
	ledger    *fairex.Node
	directory *registry.Directory
	// payer is the recipient wallet that funded the window's payments.
	payer *wallet.Wallet
	// gatewayID is the gateway the probe payments name as claimant.
	gatewayID [20]byte
	// mine mints one block so the probe's pooled payments are flushed.
	mine func() error
}

// chainProbes times the on-chain settlement path's pieces by direct
// calls on the state the window left behind.
func chainProbes(m metricSet, cfg runConfig, s chainState) {
	probeCalls := cfg.probeCalls()
	eph, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		return
	}
	params := script.KeyReleaseParams{
		RSAPubKey:         bccrypto.MarshalRSA512PublicKey(eph.Public()),
		GatewayPubKeyHash: s.gatewayID,
		RefundHeight:      s.ledger.Height() + 100,
		BuyerPubKeyHash:   s.payer.PubKeyHash(),
	}
	// The recipient's step 9: snapshot the spendable view, select coins,
	// build and sign the Listing 1 payment.
	m["wallet.build_payment_us"] = us(timeCalls(probeCalls, func() {
		_, _ = s.payer.BuildKeyReleasePayment(s.ledger.UTXO(), params, 100, 1) // timing only
	}))
	m["registry.resolve_us"] = us(timeCalls(probeCalls*10, func() {
		_, _ = s.directory.Lookup(s.payer.PubKeyHash()) // timing only
	}))
	if claim, input, lock, ok := lastClaim(s.ledger.Chain); ok {
		if claim.VerifyInput(input, lock) == nil {
			m["script.fairex_verify_us"] = us(timeCalls(probeCalls, func() {
				_ = claim.VerifyInput(input, lock) // verified just above
			}))
		}
	}
	m["chain.utxo_size"] = float64(s.ledger.Chain.UTXO().Len())
	m["chain.replay_tx_per_s"] = replayRate(s.ledger.Chain)

	// Mempool admission: self-payments chained on each other's change,
	// then one block to flush them.
	const admits = 50
	var admit time.Duration
	admitted := 0
	for i := 0; i < admits; i++ {
		tx, err := s.payer.BuildPayment(s.ledger.UTXO(), s.payer.PubKeyHash(), 1000, 1)
		if err != nil {
			break
		}
		t0 := time.Now()
		if err := s.ledger.Submit(tx); err != nil {
			break
		}
		admit += time.Since(t0)
		admitted++
	}
	if admitted > 0 {
		m["chain.mempool_admit_us"] = us(admit / time.Duration(admitted))
		_ = s.mine() // flush only; the run's checks are already done
	}
}

// lastClaim finds the newest confirmed fair-exchange claim: the
// transaction whose unlocking script reveals an RSA private key, with
// the Listing 1 locking script it spends.
func lastClaim(c *chain.Chain) (claim *chain.Tx, input int, lock script.Script, ok bool) {
	for h := c.Height(); h > 0 && h > c.Height()-8; h-- {
		b, found := c.BlockAt(h)
		if !found {
			continue
		}
		for _, tx := range b.Txs {
			for i, in := range tx.Inputs {
				if _, err := script.ExtractClaimedRSAKey(in.Unlock); err != nil {
					continue
				}
				payment, _, found := c.FindTx(in.Prev.TxID)
				if !found || int(in.Prev.Index) >= len(payment.Outputs) {
					continue
				}
				return tx, i, payment.Outputs[in.Prev.Index].Lock, true
			}
		}
	}
	return nil, 0, nil, false
}

// replayRate connects the workload's own blocks into a fresh chain (cold
// signature cache) and returns transactions validated per second.
func replayRate(src *chain.Chain) float64 {
	height := src.Height()
	first, ok := src.BlockAt(1)
	if !ok {
		return 0
	}
	dst, err := chain.New(src.Params(), src.Genesis())
	if err != nil {
		return 0
	}
	dst.AuthorizeMiner(first.Header.MinerPubKey)
	txs := 0
	start := time.Now()
	for h := int64(1); h <= height; h++ {
		b, ok := src.BlockAt(h)
		if !ok {
			return 0
		}
		if err := dst.AddBlock(b); err != nil {
			return 0
		}
		txs += len(b.Txs)
	}
	if el := time.Since(start).Seconds(); el > 0 {
		return float64(txs) / el
	}
	return 0
}

// telemetrySums adds every series of every registry up by metric name
// (all label sets together); a histogram contributes its sum under its
// name and its observation count under name+"_count".
func telemetrySums(regs []*telemetry.Registry) map[string]float64 {
	sums := make(map[string]float64)
	for _, reg := range regs {
		for _, s := range reg.Snapshot() {
			sums[s.Name] += s.Value
			if s.Histogram != nil {
				sums[s.Name+"_count"] += float64(s.Histogram.Count)
			}
		}
	}
	return sums
}

// sigcacheHitRatio reads the shared signature cache's counters.
func sigcacheHitRatio(now, base map[string]float64) float64 {
	hits := now["bcwan_chain_sigcache_hits_total"] - base["bcwan_chain_sigcache_hits_total"]
	misses := now["bcwan_chain_sigcache_misses_total"] - base["bcwan_chain_sigcache_misses_total"]
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
