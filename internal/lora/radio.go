package lora

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bcwan/internal/simtime"
	"bcwan/internal/telemetry"
)

// Position is a 2D location in meters.
type Position struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance in meters.
func Distance(a, b Position) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// PathLossModel is the log-distance model PL(d) = PL(d0) + 10·n·log10(d/d0)
// with parameters from Petäjäjärvi et al. [6 in the paper], the LoRa
// channel-attenuation study the paper cites.
type PathLossModel struct {
	RefLossDB     float64
	RefDistanceM  float64
	Exponent      float64
	MinDistanceM  float64
	TxPowerDBm    float64
	AntennaGainDB float64
}

// DefaultPathLoss returns the Petäjäjärvi model (PL = 127.41 dB at 1 km,
// exponent 2.08) with the EU868 14 dBm TX power.
func DefaultPathLoss() PathLossModel {
	return PathLossModel{
		RefLossDB:    127.41,
		RefDistanceM: 1000,
		Exponent:     2.08,
		MinDistanceM: 1,
		TxPowerDBm:   14,
	}
}

// LossDB returns the path loss at distance d meters.
func (m PathLossModel) LossDB(d float64) float64 {
	if d < m.MinDistanceM {
		d = m.MinDistanceM
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d/m.RefDistanceM)
}

// ReceivedPowerDBm returns the RX power over distance d.
func (m PathLossModel) ReceivedPowerDBm(d float64) float64 {
	return m.TxPowerDBm + m.AntennaGainDB - m.LossDB(d)
}

// Sensitivity returns the SX127x receiver sensitivity (dBm) at 125 kHz
// bandwidth for the spreading factor.
func Sensitivity(sf SpreadingFactor) float64 {
	switch sf {
	case SF7:
		return -123
	case SF8:
		return -126
	case SF9:
		return -129
	case SF10:
		return -132
	case SF11:
		return -134.5
	default:
		return -137
	}
}

// Range returns the maximum distance (meters) at which the given SF is
// receivable under the model.
func (m PathLossModel) Range(sf SpreadingFactor) float64 {
	budget := m.TxPowerDBm + m.AntennaGainDB - Sensitivity(sf)
	return m.RefDistanceM * math.Pow(10, (budget-m.RefLossDB)/(10*m.Exponent))
}

// captureThresholdDB is the co-channel power margin above which the
// stronger of two overlapping transmissions still decodes (capture
// effect).
const captureThresholdDB = 6

// FrequencyHz identifies a radio channel. EU868's three default channels.
var DefaultChannels = []FrequencyHz{868_100_000, 868_300_000, 868_500_000}

// FrequencyHz is a carrier frequency in Hz.
type FrequencyHz int64

// RxFrame is a reception event delivered to a radio.
type RxFrame struct {
	Payload  []byte
	SF       SpreadingFactor
	Freq     FrequencyHz
	RSSI     float64
	From     *Radio
	Airtime  time.Duration
	Received time.Time
}

// Radio is one LoRa transceiver attached to a Channel. Handlers run on
// the channel's scheduler goroutine.
type Radio struct {
	Name     string
	id       int // creation order; fixes handler invocation order
	pos      Position
	ch       *Channel
	handler  func(RxFrame)
	halfDup  bool
	busyTill time.Time
}

// Pos returns the radio's current location.
func (r *Radio) Pos() Position { return r.pos }

// SetPos moves the radio — a device roaming between coverage areas. The
// spatial index follows the move; an in-flight transmission keeps the
// position it was launched and overheard from.
func (r *Radio) SetPos(p Position) {
	if r.handler != nil {
		old := r.ch.cellOf(r.pos)
		if next := r.ch.cellOf(p); next != old {
			r.ch.gridRemove(r, old)
			r.ch.gridInsert(r, next)
		}
	}
	r.pos = p
}

// OnReceive installs (or, with nil, removes) the reception handler. Only
// radios with a handler participate in delivery, so the channel indexes
// exactly those in its spatial grid.
func (r *Radio) OnReceive(fn func(RxFrame)) {
	had := r.handler != nil
	r.handler = fn
	switch {
	case fn != nil && !had:
		r.ch.handlers++
		r.ch.gridInsert(r, r.ch.cellOf(r.pos))
	case fn == nil && had:
		r.ch.handlers--
		r.ch.gridRemove(r, r.ch.cellOf(r.pos))
	}
}

// transmission is an in-flight frame on the channel.
type transmission struct {
	from    *Radio
	fromPos Position // sender position at launch; immune to later SetPos
	payload []byte
	sf      SpreadingFactor
	freq    FrequencyHz
	start   time.Time
	end     time.Time
}

func (t *transmission) overlaps(o *transmission) bool {
	return t.freq == o.freq && t.sf == o.sf &&
		t.start.Before(o.end) && o.start.Before(t.end)
}

// airKey buckets in-flight transmissions by the only dimensions that can
// interact: LoRa spreading factors are quasi-orthogonal, so collision,
// CAD-busy and capture checks all consider same-frequency same-SF frames
// only.
type airKey struct {
	freq FrequencyHz
	sf   SpreadingFactor
}

// cell addresses one square of the spatial grid.
type cell struct {
	x, y int64
}

// Channel is the shared radio medium: it schedules deliveries on a
// discrete-event scheduler, applies path loss + sensitivity, and corrupts
// colliding transmissions (same frequency and SF overlapping in time,
// unless the receiver's stronger signal wins by the capture threshold).
//
// Two indexes keep the medium sub-linear in fleet size. Radios with a
// reception handler live in a spatial grid whose cell edge is the maximum
// receivable distance under the model (SF12 range), so a delivery only
// examines the 3×3 cell neighborhood around the sender — every radio
// outside it is provably below sensitivity at any SF. In-flight
// transmissions are bucketed by (frequency, SF), the only pairs that can
// collide.
type Channel struct {
	sched    *simtime.Scheduler
	model    PathLossModel
	phy      PHYConfig
	radios   []*Radio
	cellSize float64
	grid     map[cell][]*Radio
	handlers int
	active   map[airKey][]*transmission
	inFlight int
	scratch  []*Radio
	// Stats counts channel-level outcomes for the experiment reports.
	Stats ChannelStats

	activeGauge *telemetry.Gauge
	cellGauge   *telemetry.Gauge
}

// ChannelStats aggregates delivery outcomes.
type ChannelStats struct {
	Transmissions uint64
	Deliveries    uint64
	Collisions    uint64
	OutOfRange    uint64
	HalfDuplex    uint64
}

// NewChannel creates a radio medium on the given scheduler.
func NewChannel(sched *simtime.Scheduler, model PathLossModel, phy PHYConfig) *Channel {
	return &Channel{
		sched:    sched,
		model:    model,
		phy:      phy,
		cellSize: model.Range(SF12),
		grid:     make(map[cell][]*Radio),
		active:   make(map[airKey][]*transmission),
	}
}

// Instrument registers the channel gauges on reg. A nil registry is a
// no-op.
func (c *Channel) Instrument(reg *telemetry.Registry) {
	ns := reg.Namespace("lora")
	c.activeGauge = ns.Gauge("active_transmissions", "In-flight frames on the shared medium (including the collision-check grace window).")
	c.cellGauge = ns.Gauge("grid_cells", "Occupied cells of the spatial radio index.")
	c.activeGauge.Set(int64(c.inFlight))
	c.cellGauge.Set(int64(len(c.grid)))
}

// NewRadio attaches a transceiver at the given position.
func (c *Channel) NewRadio(name string, pos Position) *Radio {
	r := &Radio{Name: name, id: len(c.radios), pos: pos, ch: c, halfDup: true}
	c.radios = append(c.radios, r)
	return r
}

// PHY returns the channel's modem configuration.
func (c *Channel) PHY() PHYConfig { return c.phy }

func (c *Channel) cellOf(p Position) cell {
	return cell{x: int64(math.Floor(p.X / c.cellSize)), y: int64(math.Floor(p.Y / c.cellSize))}
}

func (c *Channel) gridInsert(r *Radio, at cell) {
	c.grid[at] = append(c.grid[at], r)
	c.cellGauge.Set(int64(len(c.grid)))
}

func (c *Channel) gridRemove(r *Radio, at cell) {
	rs := c.grid[at]
	for i, other := range rs {
		if other == r {
			rs[i] = rs[len(rs)-1]
			rs = rs[:len(rs)-1]
			break
		}
	}
	if len(rs) == 0 {
		delete(c.grid, at)
	} else {
		c.grid[at] = rs
	}
	c.cellGauge.Set(int64(len(c.grid)))
}

// neighborhood collects every handler-equipped radio within the 3×3 cells
// around p, sorted by creation order so delivery outcomes are independent
// of grid bookkeeping history.
func (c *Channel) neighborhood(p Position) []*Radio {
	center := c.cellOf(p)
	out := c.scratch[:0]
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			out = append(out, c.grid[cell{x: center.x + dx, y: center.y + dy}]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	c.scratch = out
	return out
}

// Transmit schedules a frame from the radio. Delivery callbacks fire at
// start+airtime on every in-range radio whose reception is not corrupted.
// It returns the frame airtime.
func (r *Radio) Transmit(payload []byte, sf SpreadingFactor, freq FrequencyHz) (time.Duration, error) {
	c := r.ch
	airtime, err := TimeOnAir(len(payload), sf, c.phy)
	if err != nil {
		return 0, err
	}
	if len(payload) > MaxPayload(sf) {
		return 0, fmt.Errorf("lora: payload %d exceeds %s limit %d", len(payload), sf, MaxPayload(sf))
	}
	now := c.sched.Now()
	tx := &transmission{
		from:    r,
		fromPos: r.pos,
		payload: payload,
		sf:      sf,
		freq:    freq,
		start:   now,
		end:     now.Add(airtime),
	}
	key := airKey{freq: freq, sf: sf}
	c.active[key] = append(c.active[key], tx)
	c.inFlight++
	c.activeGauge.Set(int64(c.inFlight))
	c.Stats.Transmissions++
	// The sender cannot receive while transmitting (half duplex).
	if tx.end.After(r.busyTill) {
		r.busyTill = tx.end
	}

	c.sched.At(tx.end, func(at time.Time) {
		c.deliver(tx, at)
	})
	return airtime, nil
}

// deliver completes a transmission: every radio in range either receives
// the frame or loses it to a collision. Only the sender's 3×3 cell
// neighborhood is examined; all other handler-equipped radios are more
// than one SF12 range away, hence below sensitivity, and are accounted as
// out of range in bulk.
func (c *Channel) deliver(tx *transmission, at time.Time) {
	defer c.prune(at)
	eligible := c.handlers
	if tx.from.handler != nil {
		eligible--
	}
	evaluated := 0
	for _, rx := range c.neighborhood(tx.fromPos) {
		if rx == tx.from {
			continue
		}
		evaluated++
		d := Distance(tx.fromPos, rx.pos)
		power := c.model.ReceivedPowerDBm(d)
		if power < Sensitivity(tx.sf) {
			c.Stats.OutOfRange++
			continue
		}
		// Half-duplex: a radio that was transmitting during the frame
		// cannot have received it.
		if rx.busyTill.After(tx.start) {
			c.Stats.HalfDuplex++
			continue
		}
		if c.corrupted(tx, rx, power) {
			c.Stats.Collisions++
			continue
		}
		c.Stats.Deliveries++
		rx.handler(RxFrame{
			Payload:  append([]byte(nil), tx.payload...),
			SF:       tx.sf,
			Freq:     tx.freq,
			RSSI:     power,
			From:     tx.from,
			Airtime:  tx.end.Sub(tx.start),
			Received: at,
		})
	}
	c.Stats.OutOfRange += uint64(eligible - evaluated)
}

// Busy reports whether the radio can currently hear an in-flight
// transmission on the given frequency and spreading factor — the SX127x
// channel-activity-detection (CAD) primitive that listen-before-talk
// firmware (e.g. the paper's C. Pham gateway library) uses to avoid
// collisions.
func (r *Radio) Busy(freq FrequencyHz, sf SpreadingFactor) bool {
	c := r.ch
	now := c.sched.Now()
	for _, tx := range c.active[airKey{freq: freq, sf: sf}] {
		if tx.from == r {
			continue
		}
		if !tx.start.After(now) && tx.end.After(now) {
			power := c.model.ReceivedPowerDBm(Distance(tx.fromPos, r.pos))
			if power >= Sensitivity(sf) {
				return true
			}
		}
	}
	return false
}

// corrupted reports whether a concurrent same-channel same-SF
// transmission drowns tx at the receiver.
func (c *Channel) corrupted(tx *transmission, rx *Radio, rxPower float64) bool {
	for _, other := range c.active[airKey{freq: tx.freq, sf: tx.sf}] {
		if other == tx || !tx.overlaps(other) {
			continue
		}
		interferer := c.model.ReceivedPowerDBm(Distance(other.fromPos, rx.pos))
		if rxPower-interferer < captureThresholdDB {
			return true
		}
	}
	return false
}

// pruneGrace keeps finished transmissions around long enough that any
// frame they overlapped (airtime is bounded by a few seconds even at
// SF12) still sees them in its collision check at delivery time.
const pruneGrace = 10 * time.Second

// prune drops transmissions that ended more than pruneGrace before now,
// bucket by bucket. A bucket is only ever scanned by traffic on its own
// (frequency, SF) pair, so the whole map stays proportional to recent
// traffic, not to history.
func (c *Channel) prune(now time.Time) {
	cutoff := now.Add(-pruneGrace)
	for key, txs := range c.active {
		keep := txs[:0]
		for _, tx := range txs {
			if tx.end.After(cutoff) {
				keep = append(keep, tx)
			}
		}
		c.inFlight -= len(txs) - len(keep)
		if len(keep) == 0 {
			delete(c.active, key)
		} else {
			c.active[key] = keep
		}
	}
	c.activeGauge.Set(int64(c.inFlight))
}
