package experiments

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/fairex"
	"bcwan/internal/lora"
	"bcwan/internal/netsim"
	"bcwan/internal/script"
	"bcwan/internal/simtime"
	"bcwan/internal/wallet"
)

// The city benchmark scales the BcWAN substrate from the paper's
// five-gateway campus to a metropolitan deployment: a 10×10 gateway
// lattice at 2 km pitch covering an 18×18 km city, ten thousand
// uplink-only devices with a realistic SF7–SF12 mix, diurnal and bursty
// traffic, roaming devices and gateway outages, and the delivery
// credits settled on a real chain in one batched payment per interval.
// It exists to exercise the discrete-event engine at the scale the
// heap scheduler and the spatial radio index were built for — the
// all-pairs seed engine collapses quadratically here — and to emit the
// devices-vs-latency/success/chain-load scaling curve CI gates on.

// CityTier is one point on the scaling curve.
type CityTier struct {
	// Devices is the uplink-only sensor population.
	Devices int
	// Gateways is the receiving lattice size (laid out on a
	// ceil(sqrt(G)) × ceil(sqrt(G)) grid).
	Gateways int
}

// CityConfig parameterizes the metropolitan campaign.
type CityConfig struct {
	// Seed makes every tier reproducible.
	Seed int64
	// Tiers is the scaling curve, smallest first.
	Tiers []CityTier
	// SimDuration is the virtual time simulated per tier.
	SimDuration time.Duration
	// MeanUplinkInterval is a device's mean spacing between uplink
	// events at the diurnal baseline rate.
	MeanUplinkInterval time.Duration
	// DiurnalAmplitude modulates the arrival rate sinusoidally in
	// [1-A, 1+A] over DiurnalPeriod — the compressed day/night cycle.
	DiurnalAmplitude float64
	// DiurnalPeriod is the length of one compressed day.
	DiurnalPeriod time.Duration
	// BurstFraction of devices emit BurstSize back-to-back frames per
	// uplink event (alarm-style reporters) instead of one.
	BurstFraction float64
	// BurstSize is the frames per burst event.
	BurstSize int
	// MobileFraction of devices roam: every MoveInterval they jump to
	// a fresh uniform position in the city.
	MobileFraction float64
	// MoveInterval spaces a mobile device's position changes.
	MoveInterval time.Duration
	// ChurnInterval is the mean uptime between one gateway's outages.
	ChurnInterval time.Duration
	// OutageDuration is how long a churned gateway stays deaf.
	OutageDuration time.Duration
	// GatewaySpacing is the lattice pitch in meters.
	GatewaySpacing float64
	// DutyCycle is the devices' radio budget (EU868: 0.01).
	DutyCycle float64
	// SettleInterval batches delivery credits into one chain payment.
	SettleInterval time.Duration
	// BlockInterval paces the settlement chain's miner.
	BlockInterval time.Duration
	// PricePerDelivery is the credit per first-accepted frame.
	PricePerDelivery uint64
}

// DefaultCityConfig is the committed-baseline campaign: a compressed
// two-hour day over three tiers ending at the 10k-device, 100-gateway
// city of the benchmark's headline.
func DefaultCityConfig() CityConfig {
	return CityConfig{
		Seed:               7,
		Tiers:              []CityTier{{1000, 16}, {3000, 36}, {10_000, 100}},
		SimDuration:        2 * time.Hour,
		MeanUplinkInterval: 10 * time.Minute,
		DiurnalAmplitude:   0.6,
		DiurnalPeriod:      2 * time.Hour,
		BurstFraction:      0.05,
		BurstSize:          4,
		MobileFraction:     0.10,
		MoveInterval:       10 * time.Minute,
		ChurnInterval:      30 * time.Minute,
		OutageDuration:     5 * time.Minute,
		GatewaySpacing:     2000,
		DutyCycle:          0.01,
		SettleInterval:     5 * time.Minute,
		BlockInterval:      30 * time.Second,
		PricePerDelivery:   10,
	}
}

// QuickCityConfig is a seconds-scale reduction for -quick runs and the
// default test suite's smoke coverage.
func QuickCityConfig() CityConfig {
	cfg := DefaultCityConfig()
	cfg.Tiers = []CityTier{{60, 4}, {150, 9}}
	cfg.SimDuration = 10 * time.Minute
	cfg.MeanUplinkInterval = time.Minute
	cfg.DiurnalPeriod = 10 * time.Minute
	cfg.MoveInterval = 2 * time.Minute
	cfg.ChurnInterval = 4 * time.Minute
	cfg.OutageDuration = 30 * time.Second
	cfg.SettleInterval = 2 * time.Minute
	return cfg
}

// CityTierResult is the measured outcome of one tier.
type CityTierResult struct {
	Devices  int `json:"devices"`
	Gateways int `json:"gateways"`

	// FramesSent counts uplink frames enqueued at devices (a burst
	// counts each frame); FramesDelivered counts frames first-accepted
	// at the recipient after dedupe, Duplicates the redundant copies
	// other gateways forwarded, OutageDrops the frames a deaf gateway
	// overheard and discarded.
	FramesSent      uint64  `json:"frames_sent"`
	FramesDelivered uint64  `json:"frames_delivered"`
	Duplicates      uint64  `json:"duplicates"`
	OutageDrops     uint64  `json:"outage_drops"`
	SuccessRate     float64 `json:"success_rate"`

	// Latency is enqueue → first recipient acceptance: it includes
	// duty-cycle waits, CAD backoffs, airtime and the WAN leg.
	Latencies       []time.Duration `json:"-"`
	Latency         LatencyStats    `json:"-"`
	LatencyMedianMS float64         `json:"latency_median_ms"`
	LatencyP95MS    float64         `json:"latency_p95_ms"`
	LatencyMaxMS    float64         `json:"latency_max_ms"`

	Channel lora.ChannelStats `json:"-"`

	// Chain load of the batched settlement layer.
	SettleTxs     int    `json:"settle_txs"`
	Blocks        int    `json:"blocks"`
	PayoutOutputs int    `json:"payout_outputs"`
	CreditsPaid   uint64 `json:"credits_paid"`

	GatewayOutages int `json:"gateway_outages"`
	DeviceMoves    int `json:"device_moves"`

	// WallClockMS is the real time this tier took; with FramesSent it
	// yields the frames-per-wall-second scaling the gate tracks.
	WallClockMS      float64 `json:"wall_clock_ms"`
	FramesPerWallSec float64 `json:"frames_per_wall_sec"`
}

// CityDoc is the BENCH_city.json document: the workload-shape fields of
// the CityConfig it was measured under, in milliseconds, and one row per
// tier.
type CityDoc struct {
	docHeader
	Seed                 int64             `json:"seed"`
	SimDurationMS        int64             `json:"sim_duration_ms"`
	MeanUplinkIntervalMS int64             `json:"mean_uplink_interval_ms"`
	SettleIntervalMS     int64             `json:"settle_interval_ms"`
	BlockIntervalMS      int64             `json:"block_interval_ms"`
	GatewaySpacingM      float64           `json:"gateway_spacing_m"`
	Tiers                []*CityTierResult `json:"tiers"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newCityDoc(cfg CityConfig, tiers []*CityTierResult) *CityDoc {
	for _, r := range tiers {
		r.LatencyMedianMS = durMS(r.Latency.Median)
		r.LatencyP95MS = durMS(r.Latency.P95)
		r.LatencyMaxMS = durMS(r.Latency.Max)
	}
	return &CityDoc{
		Seed:                 cfg.Seed,
		SimDurationMS:        cfg.SimDuration.Milliseconds(),
		MeanUplinkIntervalMS: cfg.MeanUplinkInterval.Milliseconds(),
		SettleIntervalMS:     cfg.SettleInterval.Milliseconds(),
		BlockIntervalMS:      cfg.BlockInterval.Milliseconds(),
		GatewaySpacingM:      cfg.GatewaySpacing,
		Tiers:                tiers,
	}
}

// citySFWeights is the device population's spreading-factor mix, in
// percent: urban deployments skew toward the fast short-range factors,
// with a long-range tail that stresses the wide SF11/SF12 collision
// domains.
var citySFWeights = []struct {
	sf  lora.SpreadingFactor
	pct int
}{
	{lora.SF7, 30}, {lora.SF8, 25}, {lora.SF9, 20},
	{lora.SF10, 15}, {lora.SF11, 7}, {lora.SF12, 3},
}

// cityPayloadLen keeps every frame under SF12's 51-byte EU868 cap:
// 13 B MAC header + 24 B reading = 37 B on air.
const cityPayloadLen = 24

// cityFrameKey identifies one uplink frame end to end.
type cityFrameKey struct {
	dev     int
	counter uint32
}

type cityGateway struct {
	idx       int
	radio     *lora.Radio
	lock      []byte // settlement payout script
	downUntil time.Time
}

type cityDevice struct {
	idx     int
	radio   *lora.Radio
	duty    *lora.DutyCycle
	sf      lora.SpreadingFactor
	eui     lora.DevEUI
	counter uint32
	mobile  bool
	bursty  bool
}

// cityPayer chains the recipient's settlement payments the way the
// sync bench's feeder does: each settlement spends its predecessor's
// change output, so coin selection stays O(1) across hundreds of
// settlements.
type cityPayer struct {
	key  *bccrypto.ECKey
	lock []byte
	op   chain.OutPoint
	val  uint64
}

// citySim is one tier's world.
type citySim struct {
	cfg   CityConfig
	tier  CityTier
	sched *simtime.Scheduler
	rng   *mrand.Rand
	wan   *netsim.Network

	chain  *chain.Chain
	pool   *chain.Mempool
	miner  *chain.Miner
	ledger *fairex.Node
	payer  *cityPayer

	channel  *lora.Channel
	gateways []*cityGateway
	devices  []*cityDevice

	end    time.Time
	width  float64 // city side length in meters
	seen   map[cityFrameKey]bool
	sentAt map[cityFrameKey]time.Time

	// credits accumulates per-gateway payouts since the last settle.
	credits []uint64

	res CityTierResult
}

func cityDevEUI(idx int) lora.DevEUI {
	var eui lora.DevEUI
	binary.BigEndian.PutUint32(eui[0:4], uint32(idx))
	eui[7] = 0xc7
	return eui
}

func cityDevIdx(eui lora.DevEUI) int {
	return int(binary.BigEndian.Uint32(eui[0:4]))
}

// newCitySim builds one tier: the gateway lattice, the device
// population and the settlement chain.
func newCitySim(cfg CityConfig, tier CityTier) (*citySim, error) {
	s := &citySim{
		cfg:     cfg,
		tier:    tier,
		sched:   simtime.NewScheduler(simOrigin),
		rng:     mrand.New(mrand.NewSource(cfg.Seed + int64(tier.Devices)*1_000_003 + int64(tier.Gateways))),
		wan:     netsim.NewPlanetLab(cfg.Seed, tier.Gateways+1),
		seen:    make(map[cityFrameKey]bool),
		sentAt:  make(map[cityFrameKey]time.Time),
		credits: make([]uint64, tier.Gateways),
		end:     simOrigin.Add(cfg.SimDuration),
	}
	s.res.Devices = tier.Devices
	s.res.Gateways = tier.Gateways

	// Settlement chain: the recipient's payer key is funded in genesis,
	// one authorized miner anchors the batches.
	payerKey, err := bccrypto.GenerateECKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	minerWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	payerLock := script.PayToPubKeyHash(payerKey.PubKeyHash())
	params := chain.DefaultParams()
	params.BlockInterval = cfg.BlockInterval
	genesis := chain.GenesisBlock(map[[20]byte]uint64{payerKey.PubKeyHash(): 1 << 40})
	c, err := chain.New(params, genesis)
	if err != nil {
		return nil, err
	}
	c.AuthorizeMiner(minerWallet.PublicBytes())
	s.chain = c
	s.pool = chain.NewMempool()
	s.pool.UseVerifier(c.Verifier())
	s.miner = chain.NewMiner(minerWallet.Key(), c, s.pool, rand.Reader)
	s.ledger = &fairex.Node{Chain: c, Pool: s.pool}
	coinbase := genesis.Txs[0]
	for i, out := range coinbase.Outputs {
		if out.Value == 1<<40 {
			s.payer = &cityPayer{
				key:  payerKey,
				lock: payerLock,
				op:   chain.OutPoint{TxID: coinbase.ID(), Index: uint32(i)},
				val:  out.Value,
			}
		}
	}
	if s.payer == nil {
		return nil, errors.New("citybench: genesis did not fund the payer")
	}

	// Radio substrate: gateways on a square lattice; only they carry
	// receive handlers, so the channel's spatial grid indexes exactly
	// the lattice.
	s.channel = lora.NewChannel(s.sched, lora.DefaultPathLoss(), lora.DefaultPHY())
	side := int(math.Ceil(math.Sqrt(float64(tier.Gateways))))
	s.width = float64(side-1) * cfg.GatewaySpacing
	if side < 2 {
		s.width = cfg.GatewaySpacing
	}
	for i := 0; i < tier.Gateways; i++ {
		pos := lora.Position{
			X: float64(i%side) * cfg.GatewaySpacing,
			Y: float64(i/side) * cfg.GatewaySpacing,
		}
		var payout [20]byte
		binary.BigEndian.PutUint32(payout[:4], uint32(i))
		payout[19] = 0x9a
		g := &cityGateway{
			idx:   i,
			radio: s.channel.NewRadio(fmt.Sprintf("citygw-%d", i), pos),
			lock:  script.PayToPubKeyHash(payout),
		}
		g.radio.OnReceive(func(f lora.RxFrame) { s.onGatewayRx(g, f) })
		s.gateways = append(s.gateways, g)
	}

	for i := 0; i < tier.Devices; i++ {
		duty, err := lora.NewDutyCycle(cfg.DutyCycle)
		if err != nil {
			return nil, err
		}
		d := &cityDevice{
			idx:    i,
			radio:  s.channel.NewRadio(fmt.Sprintf("citydev-%d", i), s.randomPos()),
			duty:   duty,
			sf:     s.pickSF(),
			eui:    cityDevEUI(i),
			mobile: s.rng.Float64() < cfg.MobileFraction,
			bursty: s.rng.Float64() < cfg.BurstFraction,
		}
		s.devices = append(s.devices, d)
	}
	return s, nil
}

func (s *citySim) randomPos() lora.Position {
	return lora.Position{X: s.rng.Float64() * s.width, Y: s.rng.Float64() * s.width}
}

func (s *citySim) pickSF() lora.SpreadingFactor {
	n := s.rng.Intn(100)
	for _, w := range citySFWeights {
		if n < w.pct {
			return w.sf
		}
		n -= w.pct
	}
	return lora.SF12
}

// recipientIdx is the recipient's WAN node (gateways occupy 0..G-1).
func (s *citySim) recipientIdx() int { return s.tier.Gateways }

// diurnalRate is the arrival-rate multiplier at virtual instant t.
func (s *citySim) diurnalRate(t time.Time) float64 {
	if s.cfg.DiurnalAmplitude <= 0 || s.cfg.DiurnalPeriod <= 0 {
		return 1
	}
	phase := 2 * math.Pi * float64(t.Sub(simOrigin)) / float64(s.cfg.DiurnalPeriod)
	rate := 1 + s.cfg.DiurnalAmplitude*math.Sin(phase)
	if rate < 0.1 {
		rate = 0.1
	}
	return rate
}

// start arms every recurring process: device uplinks, roaming, gateway
// churn, settlement and mining.
func (s *citySim) start() {
	for _, d := range s.devices {
		d := d
		jitter := time.Duration(s.rng.Int63n(int64(s.cfg.MeanUplinkInterval)))
		s.sched.After(jitter, func(now time.Time) { s.deviceTick(d, now) })
		if d.mobile {
			wait := s.cfg.MoveInterval + time.Duration(s.rng.Int63n(int64(s.cfg.MoveInterval)))
			s.sched.After(wait, func(now time.Time) { s.moveTick(d, now) })
		}
	}
	for _, g := range s.gateways {
		g := g
		s.sched.After(s.expDuration(s.cfg.ChurnInterval), func(now time.Time) { s.churnTick(g, now) })
	}
	s.sched.After(s.cfg.SettleInterval, s.settleTick)
	s.sched.After(s.cfg.BlockInterval, s.mineTick)
}

// expDuration draws an exponential interval with the given mean.
func (s *citySim) expDuration(mean time.Duration) time.Duration {
	d := time.Duration(s.rng.ExpFloat64() * float64(mean))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// deviceTick emits one uplink event (a single frame, or a burst) and
// schedules the next at the diurnally modulated rate.
func (s *citySim) deviceTick(d *cityDevice, now time.Time) {
	if !now.Before(s.end) {
		return
	}
	frames := 1
	if d.bursty && s.cfg.BurstSize > 1 {
		frames = s.cfg.BurstSize
	}
	s.sendFrames(d, frames)
	gap := time.Duration(float64(s.expDuration(s.cfg.MeanUplinkInterval)) / s.diurnalRate(now))
	s.sched.After(gap, func(t time.Time) { s.deviceTick(d, t) })
}

// sendFrames enqueues count frames; burst frames chain off each other's
// transmit completion so the device's half-duplex radio never eats its
// own burst.
func (s *citySim) sendFrames(d *cityDevice, count int) {
	counter := d.counter
	d.counter++
	key := cityFrameKey{dev: d.idx, counter: counter}
	s.sentAt[key] = s.sched.Now()
	s.res.FramesSent++

	payload := make([]byte, cityPayloadLen)
	binary.BigEndian.PutUint32(payload[:4], counter)
	frame := &lora.Frame{Type: lora.FrameData, DevEUI: d.eui, Counter: counter, Payload: payload}
	s.transmitWhenFree(d, frame.Encode(), func(at time.Time, airtime time.Duration) {
		if count <= 1 {
			return
		}
		// Next burst frame once this one has left the antenna.
		s.sched.At(at.Add(airtime+50*time.Millisecond), func(time.Time) {
			s.sendFrames(d, count-1)
		})
	})
}

// transmitWhenFree mirrors the PoC firmware's transmit path at the
// device's own spreading factor: wait out the duty budget, listen
// before talk, back off on a busy channel.
func (s *citySim) transmitWhenFree(d *cityDevice, payload []byte, onSent func(at time.Time, airtime time.Duration)) {
	expected, err := lora.TimeOnAir(len(payload), d.sf, s.channel.PHY())
	if err != nil {
		return
	}
	var attempt func(tries int)
	attempt = func(tries int) {
		freq := lora.DefaultChannels[s.rng.Intn(len(lora.DefaultChannels))]
		at := d.duty.NextFree(s.sched.Now(), expected)
		s.sched.At(at, func(t time.Time) {
			if tries < maxCADBackoffs && d.radio.Busy(freq, d.sf) {
				backoff := 20*time.Millisecond + time.Duration(s.rng.Int63n(int64(180*time.Millisecond)))
				s.sched.After(backoff, func(time.Time) { attempt(tries + 1) })
				return
			}
			airtime, err := d.radio.Transmit(payload, d.sf, freq)
			if err != nil {
				// Half-duplex clash with this device's own in-flight
				// frame; retry like a busy channel.
				if tries < maxCADBackoffs {
					backoff := 20*time.Millisecond + time.Duration(s.rng.Int63n(int64(180*time.Millisecond)))
					s.sched.After(backoff, func(time.Time) { attempt(tries + 1) })
				}
				return
			}
			d.duty.Record(t, airtime)
			if onSent != nil {
				onSent(t, airtime)
			}
		})
	}
	attempt(0)
}

// moveTick relocates a roaming device and re-arms.
func (s *citySim) moveTick(d *cityDevice, now time.Time) {
	if !now.Before(s.end) {
		return
	}
	d.radio.SetPos(s.randomPos())
	s.res.DeviceMoves++
	s.sched.After(s.cfg.MoveInterval, func(t time.Time) { s.moveTick(d, t) })
}

// churnTick takes a gateway down for OutageDuration and re-arms the
// next outage after an exponential uptime.
func (s *citySim) churnTick(g *cityGateway, now time.Time) {
	if !now.Before(s.end) {
		return
	}
	g.downUntil = now.Add(s.cfg.OutageDuration)
	s.res.GatewayOutages++
	wait := s.cfg.OutageDuration + s.expDuration(s.cfg.ChurnInterval)
	s.sched.After(wait, func(t time.Time) { s.churnTick(g, t) })
}

// onGatewayRx forwards an overheard frame across the WAN to the
// recipient — unless the gateway is in an outage window.
func (s *citySim) onGatewayRx(g *cityGateway, f lora.RxFrame) {
	if g.downUntil.After(f.Received) {
		s.res.OutageDrops++
		return
	}
	frame, err := lora.DecodeFrame(f.Payload)
	if err != nil || frame.Type != lora.FrameData {
		return
	}
	lat := s.wan.Latency(g.idx, s.recipientIdx())
	s.sched.After(lat, func(t time.Time) { s.onRecipient(g, frame, t) })
}

// onRecipient dedupes by (device, counter): the first gateway to land a
// copy earns the delivery credit and stops the latency clock.
func (s *citySim) onRecipient(g *cityGateway, frame *lora.Frame, at time.Time) {
	key := cityFrameKey{dev: cityDevIdx(frame.DevEUI), counter: frame.Counter}
	if s.seen[key] {
		s.res.Duplicates++
		return
	}
	s.seen[key] = true
	s.res.FramesDelivered++
	if created, ok := s.sentAt[key]; ok {
		s.res.Latencies = append(s.res.Latencies, at.Sub(created))
		delete(s.sentAt, key)
	}
	s.credits[g.idx] += s.cfg.PricePerDelivery
}

// settleTick batches the accumulated credits into one chained payment
// with one output per credited gateway, in gateway order.
func (s *citySim) settleTick(now time.Time) {
	s.settle()
	if now.Before(s.end) {
		s.sched.After(s.cfg.SettleInterval, s.settleTick)
	}
}

// settle builds, signs and submits the batch payment; a no-op when no
// gateway earned anything since the last batch.
func (s *citySim) settle() {
	var total uint64
	outputs := []chain.TxOut{{Value: 0, Lock: s.payer.lock}} // change, filled below
	payouts := 0
	for i, c := range s.credits {
		if c == 0 {
			continue
		}
		outputs = append(outputs, chain.TxOut{Value: c, Lock: s.gateways[i].lock})
		total += c
		payouts++
		s.credits[i] = 0
	}
	if payouts == 0 {
		return
	}
	outputs[0].Value = s.payer.val - total
	tx := &chain.Tx{
		Version: 1,
		Inputs:  []chain.TxIn{{Prev: s.payer.op}},
		Outputs: outputs,
	}
	digest := tx.SigHash(0, s.payer.lock)
	sig, err := s.payer.key.SignDigest(rand.Reader, digest[:])
	if err != nil {
		return
	}
	tx.Inputs[0].Unlock = script.UnlockP2PKH(sig, s.payer.key.PublicBytes())
	if err := s.ledger.Submit(tx); err != nil {
		return
	}
	s.payer.op = chain.OutPoint{TxID: tx.ID(), Index: 0}
	s.payer.val -= total
	s.res.SettleTxs++
	s.res.PayoutOutputs += payouts
	s.res.CreditsPaid += total
}

// mineTick anchors pending settlements; the loop outlives the traffic
// by two intervals so the final batch confirms inside the run.
func (s *citySim) mineTick(now time.Time) {
	if s.pool.Len() > 0 {
		if _, err := s.miner.Mine(now); err == nil {
			s.res.Blocks++
		}
	}
	if now.Before(s.end.Add(2 * s.cfg.BlockInterval)) {
		s.sched.After(s.cfg.BlockInterval, s.mineTick)
	}
}

// runCityTier executes one tier to completion.
func runCityTier(cfg CityConfig, tier CityTier) (*CityTierResult, error) {
	wallStart := time.Now()
	s, err := newCitySim(cfg, tier)
	if err != nil {
		return nil, err
	}
	s.start()
	s.sched.Run()
	// Credits delivered after the last in-run settle: one final batch.
	s.settle()
	if s.pool.Len() > 0 {
		if _, err := s.miner.Mine(s.sched.Now()); err == nil {
			s.res.Blocks++
		}
	}
	s.res.Channel = s.channel.Stats
	s.res.Latency = Summarize(s.res.Latencies)
	if s.res.FramesSent > 0 {
		s.res.SuccessRate = float64(s.res.FramesDelivered) / float64(s.res.FramesSent)
	}
	s.res.WallClockMS = msSince(wallStart)
	if s.res.WallClockMS > 0 {
		s.res.FramesPerWallSec = float64(s.res.FramesSent) / (s.res.WallClockMS / 1000)
	}
	// A copy, so the result does not keep the tier's whole world alive.
	res := s.res
	return &res, nil
}

// RunCityBench runs every tier of the scaling curve, smallest first.
func RunCityBench(cfg CityConfig) (*CityDoc, error) {
	if len(cfg.Tiers) == 0 {
		return nil, errors.New("citybench: at least one tier required")
	}
	if cfg.SimDuration <= 0 || cfg.MeanUplinkInterval <= 0 || cfg.SettleInterval <= 0 ||
		cfg.BlockInterval <= 0 || cfg.GatewaySpacing <= 0 || cfg.PricePerDelivery == 0 {
		return nil, fmt.Errorf("citybench: durations, spacing and price must be positive: %+v", cfg)
	}
	for _, tier := range cfg.Tiers {
		if tier.Devices <= 0 || tier.Gateways <= 0 {
			return nil, fmt.Errorf("citybench: tier %+v must be positive", tier)
		}
	}
	var results []*CityTierResult
	for _, tier := range cfg.Tiers {
		res, err := runCityTier(cfg, tier)
		if err != nil {
			return nil, fmt.Errorf("citybench tier %dx%d: %w", tier.Devices, tier.Gateways, err)
		}
		results = append(results, res)
	}
	return newCityDoc(cfg, results), nil
}

// WriteCityBench prints the scaling curve as a table.
func WriteCityBench(w io.Writer, doc *CityDoc) {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	fmt.Fprintf(w, "== City scale: %s of traffic, %.0f m lattice pitch, settle every %s ==\n",
		ms(doc.SimDurationMS), doc.GatewaySpacingM, ms(doc.SettleIntervalMS))
	fmt.Fprintf(w, "%8s %5s %8s %9s %7s %9s %9s %9s %6s %7s %8s %9s\n",
		"devices", "gws", "sent", "delivered", "succ", "lat p50", "lat p95", "lat max",
		"txs", "payouts", "wall", "frames/s")
	for _, r := range doc.Tiers {
		fmt.Fprintf(w, "%8d %5d %8d %9d %5.1f%% %9s %9s %9s %6d %7d %7.1fs %9.0f\n",
			r.Devices, r.Gateways, r.FramesSent, r.FramesDelivered, 100*r.SuccessRate,
			r.Latency.Median.Round(time.Millisecond), r.Latency.P95.Round(time.Millisecond),
			r.Latency.Max.Round(time.Millisecond),
			r.SettleTxs, r.PayoutOutputs, r.WallClockMS/1000, r.FramesPerWallSec)
	}
	fmt.Fprintln(w)
}

const (
	// minCityDevices and minCityGateways are the floors the largest tier
	// must reach for the campaign to count as city scale.
	minCityDevices  = 10_000
	minCityGateways = 100
	// minCitySuccess floors every tier's delivery success rate.
	minCitySuccess = 0.9
	// maxCityLatencyScaling caps the p95 latency ratio of the largest
	// tier to the smallest.
	maxCityLatencyScaling = 3.0
	// minCityThroughputFrac floors the largest tier's frames per wall
	// second as a fraction of the smallest's.
	minCityThroughputFrac = 0.15
)

// gateCity asserts the metropolitan-scale properties inside the
// candidate document itself: the campaign must actually reach city scale
// (device and gateway floors on the largest tier), deliveries must not
// collapse under load (per-tier success floor), the p95 exchange
// latency must stay flat across the curve (a virtual-time property,
// machine-independent), and the simulator's frames-per-wall-second may
// not collapse between the smallest and largest tier — the all-pairs
// engine the spatial index replaced degrades that ratio quadratically
// in the device count. Wall-clock throughputs are compared only
// tier-to-tier within the candidate, so the gate holds on any runner
// speed. The baseline is checked for workload-shape agreement
// (absolute frames/sec are not compared across machines).
func gateCity(base, cand *CityDoc) ([]string, error) {
	if base.Seed != cand.Seed || base.SimDurationMS != cand.SimDurationMS ||
		base.MeanUplinkIntervalMS != cand.MeanUplinkIntervalMS ||
		base.SettleIntervalMS != cand.SettleIntervalMS ||
		base.BlockIntervalMS != cand.BlockIntervalMS ||
		base.GatewaySpacingM != cand.GatewaySpacingM ||
		len(base.Tiers) != len(cand.Tiers) {
		return nil, fmt.Errorf("workload mismatch: baseline seed %d/%dms sim/%d tiers vs candidate seed %d/%dms sim/%d tiers — regenerate the baseline",
			base.Seed, base.SimDurationMS, len(base.Tiers),
			cand.Seed, cand.SimDurationMS, len(cand.Tiers))
	}
	for i := range base.Tiers {
		if base.Tiers[i].Devices != cand.Tiers[i].Devices ||
			base.Tiers[i].Gateways != cand.Tiers[i].Gateways {
			return nil, fmt.Errorf("workload mismatch: tier %d is %dx%d in the baseline, %dx%d in the candidate — regenerate the baseline",
				i, base.Tiers[i].Devices, base.Tiers[i].Gateways,
				cand.Tiers[i].Devices, cand.Tiers[i].Gateways)
		}
	}
	if len(cand.Tiers) < 2 {
		return nil, fmt.Errorf("city document needs at least two tiers for a scaling curve, got %d", len(cand.Tiers))
	}

	var failures []string
	first, last := cand.Tiers[0], cand.Tiers[len(cand.Tiers)-1]
	if last.Devices < minCityDevices || last.Gateways < minCityGateways {
		failures = append(failures, fmt.Sprintf(
			"largest tier is %d devices over %d gateways — below the %d-device/%d-gateway city floor",
			last.Devices, last.Gateways, minCityDevices, minCityGateways))
	}
	for i, tier := range cand.Tiers {
		if tier.SuccessRate < minCitySuccess {
			failures = append(failures, fmt.Sprintf(
				"tier %d (%d devices): success rate %.3f below floor %.2f — deliveries collapsed under load",
				i, tier.Devices, tier.SuccessRate, minCitySuccess))
		}
		if tier.SettleTxs < 1 || tier.Blocks < 1 {
			failures = append(failures, fmt.Sprintf(
				"tier %d (%d devices): settlement chain idle (%d txs, %d blocks) — delivery credits never anchored",
				i, tier.Devices, tier.SettleTxs, tier.Blocks))
		}
	}
	if first.LatencyP95MS > 0 {
		if ratio := last.LatencyP95MS / first.LatencyP95MS; ratio > maxCityLatencyScaling {
			failures = append(failures, fmt.Sprintf(
				"p95 latency grows %.2fx from %d to %d devices (%.0fms → %.0fms, allowed %.1fx) — the medium or scheduler is congesting superlinearly",
				ratio, first.Devices, last.Devices, first.LatencyP95MS, last.LatencyP95MS, maxCityLatencyScaling))
		}
	}
	if first.FramesPerWallSec > 0 {
		if frac := last.FramesPerWallSec / first.FramesPerWallSec; frac < minCityThroughputFrac {
			failures = append(failures, fmt.Sprintf(
				"simulator throughput falls to %.2fx of the small tier's at %d devices (%.0f vs %.0f frames/wall-sec, floor %.2fx) — did delivery fall back to an all-pairs scan?",
				frac, last.Devices, last.FramesPerWallSec, first.FramesPerWallSec, minCityThroughputFrac))
		}
	}
	return failures, nil
}
