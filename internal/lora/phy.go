// Package lora simulates the LoRa physical and MAC layers that the
// paper's proof of concept ran on real hardware (Nucleo-144 node, RFM95
// gateway shield). The simulator reproduces the properties the evaluation
// depends on: exact time-on-air per spreading factor, the EU868 1 % duty
// cycle that caps per-sensor throughput (183 messages/hour in §5.2),
// log-distance path loss with per-SF sensitivity thresholds, and
// ALOHA-style collisions between concurrent transmissions.
package lora

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// SpreadingFactor is the LoRa spreading factor, SF7 (fastest) to SF12
// (longest range).
type SpreadingFactor int

// Valid spreading factors.
const (
	SF7 SpreadingFactor = 7 + iota
	SF8
	SF9
	SF10
	SF11
	SF12
)

// ErrBadSpreadingFactor reports an SF outside SF7–SF12.
var ErrBadSpreadingFactor = errors.New("lora: spreading factor out of range")

// Valid reports whether the spreading factor is in range.
func (sf SpreadingFactor) Valid() bool { return sf >= SF7 && sf <= SF12 }

// String renders e.g. "SF7".
func (sf SpreadingFactor) String() string { return fmt.Sprintf("SF%d", int(sf)) }

// PHYConfig carries the modem parameters of the time-on-air formula.
type PHYConfig struct {
	// BandwidthHz is the channel bandwidth (125 kHz in EU868 default
	// channels).
	BandwidthHz float64
	// CodingRate is the CR in 4/(4+CR); 1 means 4/5.
	CodingRate int
	// PreambleSymbols is the programmed preamble length (8 standard).
	PreambleSymbols int
	// ExplicitHeader enables the PHY header (on for LoRaWAN uplinks).
	ExplicitHeader bool
	// CRC enables the payload CRC (on for uplinks).
	CRC bool
}

// DefaultPHY is the EU868 LoRaWAN uplink configuration.
func DefaultPHY() PHYConfig {
	return PHYConfig{
		BandwidthHz:     125_000,
		CodingRate:      1,
		PreambleSymbols: 8,
		ExplicitHeader:  true,
		CRC:             true,
	}
}

// MaxPayload returns the maximum MAC payload (bytes) per spreading factor
// in EU868 (DR0–DR5 M values).
func MaxPayload(sf SpreadingFactor) int {
	switch sf {
	case SF7, SF8:
		return 222 // DR5/DR4 allow 222 at SF7; SF8 is 222 at DR4
	case SF9:
		return 115
	default:
		return 51
	}
}

// TimeOnAir computes the LoRa frame airtime from the Semtech SX127x
// formula (AN1200.13). payloadLen is the PHY payload in bytes.
func TimeOnAir(payloadLen int, sf SpreadingFactor, cfg PHYConfig) (time.Duration, error) {
	if !sf.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadSpreadingFactor, int(sf))
	}
	if payloadLen < 0 || cfg.BandwidthHz <= 0 || cfg.CodingRate < 1 || cfg.CodingRate > 4 {
		return 0, fmt.Errorf("lora: invalid time-on-air parameters (len=%d bw=%.0f cr=%d)",
			payloadLen, cfg.BandwidthHz, cfg.CodingRate)
	}
	tSym := math.Pow(2, float64(sf)) / cfg.BandwidthHz // seconds

	// Low data rate optimization is mandated for symbol times ≥ 16 ms
	// (SF11, SF12 at 125 kHz).
	de := 0.0
	if tSym >= 0.016 {
		de = 1
	}
	ih := 1.0
	if cfg.ExplicitHeader {
		ih = 0
	}
	crc := 0.0
	if cfg.CRC {
		crc = 1
	}

	num := 8*float64(payloadLen) - 4*float64(sf) + 28 + 16*crc - 20*ih
	den := 4 * (float64(sf) - 2*de)
	payloadSymbols := 8.0
	if num > 0 {
		payloadSymbols += math.Ceil(num/den) * float64(cfg.CodingRate+4)
	}
	preamble := (float64(cfg.PreambleSymbols) + 4.25) * tSym
	total := preamble + payloadSymbols*tSym
	return time.Duration(total * float64(time.Second)), nil
}

// MaxMessagesPerHour returns the duty-cycle-limited message budget for a
// payload size at the given SF — the §5.2 calculation that yields the
// paper's "theoretical maximum of 183 messages per sensor per hour".
func MaxMessagesPerHour(payloadLen int, sf SpreadingFactor, dutyCycle float64, cfg PHYConfig) (float64, error) {
	if dutyCycle <= 0 || dutyCycle > 1 {
		return 0, fmt.Errorf("lora: duty cycle %f out of (0,1]", dutyCycle)
	}
	toa, err := TimeOnAir(payloadLen, sf, cfg)
	if err != nil {
		return 0, err
	}
	return 3600 * dutyCycle / toa.Seconds(), nil
}

// dutyWindow is the averaging window of the EU868 duty-cycle rule.
const dutyWindow = time.Hour

// DutyCycle enforces the EU868 sub-band duty cycle as a sliding-window
// airtime budget: total time-on-air within any one-hour window must stay
// below limit·window. Budget accounting (rather than a per-transmission
// off-period) permits the request/data burst of a BcWAN exchange while
// still capping throughput at the §5.2 messages-per-hour figure.
//
// Records live in a start-ordered ring buffer with a running airtime sum,
// so budget queries are O(1): expiry pops from the head, recording pushes
// at the tail, and NextFree walks the ring once without rescanning.
type DutyCycle struct {
	limit  float64
	window time.Duration
	buf    []txRecord // ring storage
	head   int        // index of oldest record
	n      int        // live records
	used   time.Duration
}

type txRecord struct {
	start   time.Time
	airtime time.Duration
}

// NewDutyCycle returns a limiter for the given fraction (0.01 = 1 %).
func NewDutyCycle(limit float64) (*DutyCycle, error) {
	if limit <= 0 || limit > 1 {
		return nil, fmt.Errorf("lora: duty cycle %f out of (0,1]", limit)
	}
	return &DutyCycle{limit: limit, window: dutyWindow}, nil
}

// budget returns the allowed airtime per window.
func (d *DutyCycle) budget() time.Duration {
	return time.Duration(float64(d.window) * d.limit)
}

// at returns the i-th oldest live record.
func (d *DutyCycle) at(i int) txRecord {
	return d.buf[(d.head+i)%len(d.buf)]
}

// Used returns the recorded airtime inside the window ending at now.
func (d *DutyCycle) Used(now time.Time) time.Duration {
	d.prune(now)
	return d.used
}

// CanTransmit reports whether a transmission of the given airtime fits
// the budget at the given instant.
func (d *DutyCycle) CanTransmit(now time.Time, airtime time.Duration) bool {
	d.prune(now)
	return d.used+airtime <= d.budget()
}

// NextFree returns the earliest instant at or after now when a
// transmission of the given airtime fits the budget.
//
// The walk mirrors the definition of the sliding window: while the load
// does not fit, slide the window to the instant the oldest in-window
// record expires and drop every record that expires with it. Each live
// record is visited at most once and the ring itself is left untouched —
// only real time passing (prune) retires records.
func (d *DutyCycle) NextFree(now time.Time, airtime time.Duration) time.Time {
	d.prune(now)
	if airtime > d.budget() {
		// Never fits; report a window out as "infinitely throttled".
		return now.Add(d.window)
	}
	t := now
	used := d.used
	i := 0
	for used+airtime > d.budget() && i < d.n {
		oldest := d.at(i)
		t = oldest.start.Add(d.window)
		// Everything starting at or before the oldest record expires with
		// it (the window keeps records starting strictly after its edge).
		for i < d.n && !d.at(i).start.After(oldest.start) {
			used -= d.at(i).airtime
			i++
		}
	}
	return t
}

// Record accounts a transmission beginning at start with the given
// airtime. Starts arrive in order from the simulators; an out-of-order
// start falls back to a sorted insertion so the ring invariant holds.
func (d *DutyCycle) Record(start time.Time, airtime time.Duration) {
	if len(d.buf) == d.n {
		d.grow()
	}
	if d.n > 0 && start.Before(d.at(d.n-1).start) {
		d.insertSorted(txRecord{start: start, airtime: airtime})
	} else {
		d.buf[(d.head+d.n)%len(d.buf)] = txRecord{start: start, airtime: airtime}
		d.n++
	}
	d.used += airtime
}

// grow doubles the ring, linearizing the live records to the front.
func (d *DutyCycle) grow() {
	next := make([]txRecord, maxInt(4, 2*len(d.buf)))
	for i := 0; i < d.n; i++ {
		next[i] = d.at(i)
	}
	d.buf = next
	d.head = 0
}

// insertSorted places an out-of-order record at its start-ordered slot.
func (d *DutyCycle) insertSorted(r txRecord) {
	// Binary search over ring offsets for the first record after r.start.
	lo, hi := 0, d.n
	for lo < hi {
		mid := (lo + hi) / 2
		if d.at(mid).start.After(r.start) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Shift the tail right by one slot.
	for i := d.n; i > lo; i-- {
		d.buf[(d.head+i)%len(d.buf)] = d.buf[(d.head+i-1)%len(d.buf)]
	}
	d.buf[(d.head+lo)%len(d.buf)] = r
	d.n++
}

// prune retires records older than one window before now from the head
// of the ring.
func (d *DutyCycle) prune(now time.Time) {
	cutoff := now.Add(-d.window)
	for d.n > 0 && !d.buf[d.head].start.After(cutoff) {
		d.used -= d.buf[d.head].airtime
		d.buf[d.head] = txRecord{}
		d.head = (d.head + 1) % len(d.buf)
		d.n--
	}
	if d.n == 0 {
		d.head = 0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
