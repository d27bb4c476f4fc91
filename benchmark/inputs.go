package main

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"bcwan/internal/bccrypto"
	"bcwan/internal/device"
	"bcwan/internal/lora"
	"bcwan/internal/recipient"
)

// devicesPerStream is the sensor population behind one device stream;
// each reading picks its sensor from the seed.
const devicesPerStream = 8

// mix is splitmix64 over (seed, stream, seq): the only source of input
// variation, so a seed names its inputs exactly.
func mix(seed int64, stream, seq uint32) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)<<32|uint64(seq)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// reading is the unique plaintext of delivery seq on a stream: the
// largest frame the protocol carries (15 bytes), so no two deliveries of
// a run share a payload and any arrival names its own (stream, seq).
func reading(seed int64, stream, seq uint32) []byte {
	p := make([]byte, bccrypto.MaxCanonicalPlaintext)
	p[0] = byte(stream)
	binary.BigEndian.PutUint32(p[1:5], seq)
	binary.BigEndian.PutUint64(p[5:13], mix(seed, stream, seq))
	p[13], p[14] = 'b', 'c'
	return p
}

// spoiled is a reading no sensor sent: what the smoke test's corruption
// hook expects in place of the real one, so the output check must fail.
func spoiled(want []byte) []byte {
	return append([]byte("X"), want[1:]...)
}

// pickDevice chooses which of a stream's sensors sends delivery seq.
func pickDevice(seed int64, stream, seq uint32) int {
	return int(mix(seed^0x5eed, stream, seq) % devicesPerStream)
}

// checkInbox verifies that an inbox holds exactly the stream's readings,
// each once, byte-equal, in sending order. At most failed of the sent
// readings may be missing: one per operation that failed.
func checkInbox(seed int64, stream uint32, inbox [][]byte, sent uint32, failed int) error {
	next := uint32(0)
	for i, got := range inbox {
		if len(got) < 5 || got[0] != byte(stream) {
			return fmt.Errorf("stream %d inbox[%d]: foreign plaintext %x", stream, i, got)
		}
		seq := binary.BigEndian.Uint32(got[1:5])
		if seq < next || seq >= sent {
			return fmt.Errorf("stream %d inbox[%d]: reading %d duplicated or out of order (next %d, sent %d)", stream, i, seq, next, sent)
		}
		if !bytes.Equal(got, reading(seed, stream, seq)) {
			return fmt.Errorf("stream %d inbox[%d]: reading %d is not byte-equal", stream, i, seq)
		}
		next = seq + 1
	}
	if missing := int(sent) - len(inbox); missing > failed {
		return fmt.Errorf("stream %d: %d readings missing from the inbox, %d operations failed", stream, missing, failed)
	}
	return nil
}

// provisionDevice mints one sensor (shared AES key, RSA-512 signing
// pair) and registers its counterpart with the recipient actor — §4.4's
// provisioning phase, as cmd/bcwand and the daemon tests do it.
func provisionDevice(rc *recipient.Recipient, eui lora.DevEUI) (*device.Device, error) {
	sharedKey := make([]byte, bccrypto.AESKeySize)
	if _, err := rand.Read(sharedKey); err != nil {
		return nil, err
	}
	nodeKey, err := bccrypto.GenerateRSA512(rand.Reader)
	if err != nil {
		return nil, err
	}
	dev, err := device.New(device.Provisioning{
		DevEUI:        eui,
		SharedKey:     sharedKey,
		SigningKey:    nodeKey,
		RecipientAddr: rc.Wallet().PubKeyHash(),
	}, rand.Reader)
	if err != nil {
		return nil, err
	}
	rc.Provision(eui, recipient.DeviceInfo{SharedKey: sharedKey, NodePub: nodeKey.Public()})
	return dev, nil
}
