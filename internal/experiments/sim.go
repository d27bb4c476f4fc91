package experiments

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"time"

	"bcwan/internal/bccrypto"
	"bcwan/internal/chain"
	"bcwan/internal/device"
	"bcwan/internal/fairex"
	"bcwan/internal/gateway"
	"bcwan/internal/lora"
	"bcwan/internal/netsim"
	"bcwan/internal/recipient"
	"bcwan/internal/registry"
	"bcwan/internal/simtime"
	"bcwan/internal/wallet"
)

// Result is the outcome of one latency experiment.
type Result struct {
	Config    Config
	Latencies []time.Duration
	Summary   LatencyStats
	Completed int
	Failed    int
	Retries   int
	Blocks    int
	Channel   lora.ChannelStats
}

// simOrigin anchors virtual time.
var simOrigin = time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)

// gatewaySpacing keeps each sensor in range of exactly one gateway at
// SF7 (range ≈ 2.9 km).
const gatewaySpacing = 6000.0

// sensorRadius scatters sensors near their gateway.
const sensorRadius = 1500.0

// gatewayDutyCycle is the EU868 downlink sub-band budget (10 %).
const gatewayDutyCycle = 0.10

// keyResponseTimeout triggers a key-request retransmission.
const keyResponseTimeout = 3 * time.Second

// sim is one experiment instance.
type sim struct {
	cfg   Config
	sched *simtime.Scheduler
	rng   *mrand.Rand
	wan   *netsim.Network

	chain   *chain.Chain
	pool    *chain.Mempool
	miner   *chain.Miner
	ledger  *fairex.Node
	rcpt    *recipient.Recipient
	channel *lora.Channel

	gateways []*simGateway
	sensors  []*simSensor

	// stallUntil[i] is when daemon i's blockchain module becomes
	// responsive again (gateways 0..G-1, recipient = G).
	stallUntil []time.Time

	// active maps a sensor EUI to its in-flight exchange.
	active map[lora.DevEUI]*exchange

	result    Result
	remaining int
	miningOn  bool
}

type simGateway struct {
	idx   int
	gw    *gateway.Gateway
	radio *lora.Radio
	duty  *lora.DutyCycle
}

type simSensor struct {
	idx     int
	gwIdx   int
	dev     *device.Device
	radio   *lora.Radio
	duty    *lora.DutyCycle
	quota   int
	lastTry time.Time
}

// exchange tracks one measured end-to-end exchange.
type exchange struct {
	sensor    *simSensor
	attempt   int
	started   time.Time // first gateway message (paper's clock start)
	haveStart bool
	gotKey    bool
	done      bool
}

// recipientIdx returns the WAN index of the recipient daemon.
func (s *sim) recipientIdx() int { return s.cfg.Gateways }

// masterIdx returns the WAN index of the mining master.
func (s *sim) masterIdx() int { return s.cfg.Gateways + 1 }

// Run executes the experiment to completion.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	s.sched.Run()
	s.result.Channel = s.channel.Stats
	s.result.Summary = Summarize(s.result.Latencies)
	s.result.Config = cfg
	// Return a copy: a pointer into the sim would keep its chain, mempool,
	// radios and scheduler reachable for as long as the caller holds the
	// Result.
	res := s.result
	return &res, nil
}

func newSim(cfg Config) (*sim, error) {
	if cfg.Gateways <= 0 || cfg.SensorsPerGateway <= 0 || cfg.Exchanges <= 0 {
		return nil, errors.New("experiments: gateways, sensors and exchanges must be positive")
	}
	s := &sim{
		cfg:        cfg,
		sched:      simtime.NewScheduler(simOrigin),
		rng:        mrand.New(mrand.NewSource(cfg.Seed)),
		wan:        netsim.NewPlanetLab(cfg.Seed, cfg.Gateways+2),
		active:     make(map[lora.DevEUI]*exchange),
		stallUntil: make([]time.Time, cfg.Gateways+1),
		remaining:  cfg.Exchanges,
	}

	// Blockchain substrate: recipient funded, master is the only miner.
	rcptWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	minerWallet, err := wallet.New(rand.Reader)
	if err != nil {
		return nil, err
	}
	params := chain.DefaultParams()
	params.BlockInterval = cfg.BlockInterval
	// Every retried attempt can place a payment, so fund several
	// attempts per exchange.
	need := uint64(cfg.Exchanges*(cfg.MaxRetries+2)+64) * (cfg.Price + 8)
	genesis := chain.GenesisBlock(map[[20]byte]uint64{rcptWallet.PubKeyHash(): need})
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

	dir := registry.NewDirectory()
	dir.Attach(c)

	rcptCfg := recipient.DefaultConfig()
	rcptCfg.MaxPrice = cfg.Price
	s.rcpt = recipient.New(rcptCfg, rcptWallet, s.ledger)

	// Radio substrate.
	s.channel = lora.NewChannel(s.sched, lora.DefaultPathLoss(), lora.DefaultPHY())

	for i := 0; i < cfg.Gateways; i++ {
		gwWallet, err := wallet.New(rand.Reader)
		if err != nil {
			return nil, err
		}
		gwCfg := gateway.DefaultConfig()
		gwCfg.Price = cfg.Price
		gwCfg.WaitConfirmations = cfg.WaitConfirmations
		duty, err := lora.NewDutyCycle(gatewayDutyCycle)
		if err != nil {
			return nil, err
		}
		sg := &simGateway{
			idx:   i,
			gw:    gateway.New(gwCfg, gwWallet, s.ledger, dir, rand.Reader),
			radio: s.channel.NewRadio(fmt.Sprintf("gw-%d", i), lora.Position{X: float64(i) * gatewaySpacing}),
			duty:  duty,
		}
		sg.radio.OnReceive(func(f lora.RxFrame) { s.onGatewayRx(sg, f) })
		s.gateways = append(s.gateways, sg)
	}

	// Sensors, provisioned with the shared recipient.
	total := cfg.Gateways * cfg.SensorsPerGateway
	base, extra := cfg.Exchanges/total, cfg.Exchanges%total
	for i := 0; i < total; i++ {
		gwIdx := i / cfg.SensorsPerGateway
		sharedKey := make([]byte, bccrypto.AESKeySize)
		if _, err := rand.Read(sharedKey); err != nil {
			return nil, err
		}
		nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
		if err != nil {
			return nil, err
		}
		var eui lora.DevEUI
		eui[0] = byte(i >> 8)
		eui[1] = byte(i)
		eui[7] = 0xbc
		dev, err := device.New(device.Provisioning{
			DevEUI:        eui,
			SharedKey:     sharedKey,
			SigningKey:    nodeKey,
			RecipientAddr: rcptWallet.PubKeyHash(),
		}, rand.Reader)
		if err != nil {
			return nil, err
		}
		s.rcpt.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
		duty, err := lora.NewDutyCycle(cfg.DutyCycle)
		if err != nil {
			return nil, err
		}
		angle := s.rng.Float64() * 2 * math.Pi
		r := sensorRadius * (0.2 + 0.8*s.rng.Float64())
		pos := lora.Position{
			X: float64(gwIdx)*gatewaySpacing + r*math.Cos(angle),
			Y: r * math.Sin(angle),
		}
		quota := base
		if i < extra {
			quota++
		}
		sn := &simSensor{
			idx:   i,
			gwIdx: gwIdx,
			dev:   dev,
			radio: s.channel.NewRadio(fmt.Sprintf("sensor-%d", i), pos),
			duty:  duty,
			quota: quota,
		}
		sn.radio.OnReceive(func(f lora.RxFrame) { s.onSensorRx(sn, f) })
		s.sensors = append(s.sensors, sn)
	}

	// Recipient publishes its IP binding; one bootstrap block carries
	// it (the paper's EC2 master bootstraps the nodes).
	pub, err := registry.BuildPublish(rcptWallet, s.ledger.Spendable(rcptWallet.PubKeyHash()), "203.0.113.10:7000", 1)
	if err != nil {
		return nil, err
	}
	if err := s.ledger.Submit(pub); err != nil {
		return nil, err
	}
	if _, err := s.miner.Mine(simOrigin); err != nil {
		return nil, err
	}
	s.result.Blocks++
	return s, nil
}

// start schedules the mining loop and every sensor's first exchange.
func (s *sim) start() {
	s.miningOn = true
	s.sched.After(s.cfg.BlockInterval, s.mineTick)
	for _, sn := range s.sensors {
		if sn.quota == 0 {
			continue
		}
		jitter := time.Duration(s.rng.Int63n(int64(s.cfg.MeanInterArrival)))
		sn := sn
		s.sched.After(jitter, func(now time.Time) { s.beginExchange(sn, 0) })
	}
}

// done reports whether all measured exchanges have ended.
func (s *sim) done() bool { return s.remaining <= 0 }

// mineTick mines a block and propagates its arrival (and stall) to every
// daemon.
func (s *sim) mineTick(now time.Time) {
	if s.done() {
		s.miningOn = false
		return
	}
	if _, err := s.miner.Mine(now); err == nil {
		s.result.Blocks++
		for i := 0; i <= s.cfg.Gateways; i++ {
			i := i
			arrive := s.wan.Latency(s.masterIdx(), i)
			s.sched.After(arrive, func(t time.Time) {
				if s.cfg.VerificationStall > 0 {
					until := t.Add(s.cfg.VerificationStall)
					if until.After(s.stallUntil[i]) {
						s.stallUntil[i] = until
					}
				}
			})
		}
	}
	s.sched.After(s.cfg.BlockInterval, s.mineTick)
}

// daemonAt returns when daemon i can process a request arriving at now
// (stall first, then fixed processing time).
func (s *sim) daemonAt(i int, now time.Time) time.Time {
	at := now
	if s.stallUntil[i].After(at) {
		at = s.stallUntil[i]
	}
	return at.Add(s.cfg.DaemonProcessing)
}

// beginExchange starts (or restarts) one measured exchange for a sensor.
func (s *sim) beginExchange(sn *simSensor, attempt int) {
	if attempt == 0 {
		if s.done() {
			return
		}
		// A sensor runs one exchange at a time: if the previous one is
		// still in flight (long stalls under Fig. 6 conditions), defer
		// rather than clobber it.
		if cur, ok := s.active[sn.dev.EUI()]; ok && !cur.done {
			s.sched.After(5*time.Second, func(time.Time) { s.beginExchange(sn, 0) })
			return
		}
		if sn.quota <= 0 {
			return
		}
		sn.quota--
		sn.lastTry = s.sched.Now()
		// Schedule the sensor's next exchange.
		if sn.quota > 0 {
			gap := time.Duration(float64(s.cfg.MeanInterArrival) * (0.5 + s.rng.Float64()))
			s.sched.After(gap, func(time.Time) { s.beginExchange(sn, 0) })
		}
	}
	ex := &exchange{sensor: sn, attempt: attempt}
	s.active[sn.dev.EUI()] = ex

	// Abandon or retry on timeout.
	s.sched.After(s.cfg.ExchangeTimeout, func(time.Time) {
		if ex.done {
			return
		}
		ex.done = true
		delete(s.active, sn.dev.EUI())
		if ex.attempt < s.cfg.MaxRetries {
			s.result.Retries++
			s.beginExchange(sn, ex.attempt+1)
			return
		}
		s.result.Failed++
		s.remaining--
	})

	s.transmitWhenFree(sn.radio, sn.duty, sn.dev.KeyRequestFrame(), nil)
	// Retransmit the key request if no ePk arrives in time.
	s.scheduleKeyRetry(sn, ex, 1)
}

func (s *sim) scheduleKeyRetry(sn *simSensor, ex *exchange, tries int) {
	if tries > s.cfg.MaxRetries {
		return
	}
	// Exponential backoff with jitter: under a verification stall a
	// fixed retry period turns 150 sensors into a downlink storm that
	// exhausts the gateways' 10 % duty budget.
	wait := keyResponseTimeout << (tries - 1)
	wait += time.Duration(s.rng.Int63n(int64(keyResponseTimeout)))
	s.sched.After(wait, func(time.Time) {
		if ex.done || ex.gotKey {
			return
		}
		s.result.Retries++
		s.transmitWhenFree(sn.radio, sn.duty, sn.dev.KeyRequestFrame(), nil)
		s.scheduleKeyRetry(sn, ex, tries+1)
	})
}

// maxCADBackoffs bounds listen-before-talk retries per frame.
const maxCADBackoffs = 24

// transmitWhenFree waits for the duty-cycle budget, performs channel
// activity detection (the SX127x CAD + random backoff of the PoC's
// firmware), and sends the frame on a random EU868 channel.
func (s *sim) transmitWhenFree(radio *lora.Radio, duty *lora.DutyCycle, frame *lora.Frame, onSent func(at time.Time, airtime time.Duration)) {
	payload := frame.Encode()
	expected, err := lora.TimeOnAir(len(payload), s.cfg.SF, s.channel.PHY())
	if err != nil {
		return
	}
	var attempt func(tries int)
	attempt = func(tries int) {
		freq := lora.DefaultChannels[s.rng.Intn(len(lora.DefaultChannels))]
		at := duty.NextFree(s.sched.Now(), expected)
		s.sched.At(at, func(t time.Time) {
			if tries < maxCADBackoffs && radio.Busy(freq, s.cfg.SF) {
				backoff := 20*time.Millisecond + time.Duration(s.rng.Int63n(int64(180*time.Millisecond)))
				s.sched.After(backoff, func(time.Time) { attempt(tries + 1) })
				return
			}
			airtime, err := radio.Transmit(payload, s.cfg.SF, freq)
			if err != nil {
				return
			}
			duty.Record(t, airtime)
			if onSent != nil {
				onSent(t, airtime)
			}
		})
	}
	attempt(0)
}

// onGatewayRx handles frames heard by a gateway radio.
func (s *sim) onGatewayRx(sg *simGateway, f lora.RxFrame) {
	frame, err := lora.DecodeFrame(f.Payload)
	if err != nil {
		return
	}
	switch frame.Type {
	case lora.FrameKeyRequest:
		// Daemon step: mint the ephemeral pair, then downlink ePk.
		s.sched.At(s.daemonAt(sg.idx, f.Received), func(time.Time) {
			ex := s.active[frame.DevEUI]
			if ex == nil || ex.done {
				return
			}
			resp, err := sg.gw.HandleKeyRequest(frame)
			if err != nil {
				return
			}
			s.transmitWhenFree(sg.radio, sg.duty, resp, func(at time.Time, _ time.Duration) {
				// The paper measures "from the first message from
				// the gateway": clock starts when the ePk downlink
				// begins.
				if !ex.done && !ex.haveStart {
					ex.started = at
					ex.haveStart = true
				}
			})
		})

	case lora.FrameData:
		s.sched.At(s.daemonAt(sg.idx, f.Received), func(now time.Time) {
			// Bind the pipeline to the exchange in flight now, so a
			// slow pipeline that outlives its attempt's timeout can
			// not complete a later retry's clock.
			ex := s.active[frame.DevEUI]
			if ex == nil || ex.done {
				return
			}
			offerHeight := s.chain.Height()
			delivery, _, err := sg.gw.HandleData(frame)
			if err != nil {
				return
			}
			// WAN leg: gateway → recipient (Fig. 3 step 7).
			s.sched.After(s.wan.Latency(sg.idx, s.recipientIdx()), func(t2 time.Time) {
				s.sched.At(s.daemonAt(s.recipientIdx(), t2), func(time.Time) {
					payment, err := s.rcpt.HandleDelivery(delivery)
					if err != nil {
						return
					}
					// WAN leg: the payment gossips back to the
					// gateway.
					s.sched.After(s.wan.Latency(s.recipientIdx(), sg.idx), func(t3 time.Time) {
						s.sched.At(s.daemonAt(sg.idx, t3), func(t4 time.Time) {
							s.tryClaim(sg, ex, delivery, payment.ID(), offerHeight, t4)
						})
					})
				})
			})
		})
	}
}

// tryClaim attempts the gateway's claim; with a confirmation policy it
// re-arms on every future block until the payment confirms.
func (s *sim) tryClaim(sg *simGateway, ex *exchange, d *fairex.Delivery, paymentID chain.Hash, offerHeight int64, now time.Time) {
	if ex.done {
		return
	}
	claim, err := sg.gw.VerifyAndClaim(d.DevEUI, d.Exchange, paymentID, offerHeight)
	if err != nil {
		if errors.Is(err, gateway.ErrNotEnoughConfirmations) {
			// Check again shortly after the next expected block.
			s.sched.After(s.cfg.BlockInterval+500*time.Millisecond, func(t time.Time) {
				s.tryClaim(sg, ex, d, paymentID, offerHeight, t)
			})
		}
		return
	}
	// WAN leg: claim gossips to the recipient, which extracts eSk and
	// decrypts (zero-confirmation settle, as in the PoC).
	s.sched.After(s.wan.Latency(sg.idx, s.recipientIdx()), func(t time.Time) {
		s.sched.At(s.daemonAt(s.recipientIdx(), t), func(end time.Time) {
			msg, err := s.rcpt.SettleClaimTx(paymentID, claim)
			if err != nil {
				return
			}
			if ex.done {
				return
			}
			ex.done = true
			if s.active[msg.DevEUI] == ex {
				delete(s.active, msg.DevEUI)
			}
			if ex.haveStart {
				s.result.Latencies = append(s.result.Latencies, end.Sub(ex.started))
			}
			s.result.Completed++
			s.remaining--
		})
	})
}

// onSensorRx handles the gateway's ePk downlink at the node.
func (s *sim) onSensorRx(sn *simSensor, f lora.RxFrame) {
	frame, err := lora.DecodeFrame(f.Payload)
	if err != nil || frame.Type != lora.FrameKeyResponse || frame.DevEUI != sn.dev.EUI() {
		return
	}
	ex, ok := s.active[sn.dev.EUI()]
	if !ok || ex.done || ex.gotKey {
		return
	}
	ex.gotKey = true
	// Node compute (Fig. 3 steps 3–4 on the Nucleo), then the data
	// uplink.
	reading := fmt.Sprintf("t=%04.1f", 15+10*s.rng.Float64())
	s.sched.After(s.cfg.NodeCompute, func(time.Time) {
		dataFrame, err := sn.dev.DataFrame([]byte(reading), frame.Payload, frame.Counter)
		if err != nil {
			return
		}
		s.transmitWhenFree(sn.radio, sn.duty, dataFrame, nil)
	})
}
