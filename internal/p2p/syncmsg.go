package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Typed sync messages for headers-first synchronization and snapshot
// bootstrap, the daemon's only catch-up protocol. They are versioned
// binary structs: a version byte leads every encoding, and
// decoders reject versions they do not understand, so a future format
// bump fails loudly at the requester instead of corrupting a sync. The
// message *types* themselves stay forward compatible the same way the
// rest of the gossip layer is — a node simply has no handler registered
// for a type it does not know and ignores it.

// Sync message type names. The request/response pairs are registered
// with Node.Handle and travel point-to-point; snapshot commitments are a
// relay kind and travel by inv/getdata like transactions and blocks.
const (
	MsgTypeGetHeaders    = "getheaders"
	MsgTypeHeaders       = "headers"
	MsgTypeGetSnapshot   = "getsnapshot"
	MsgTypeSnapshotChunk = "snapshotchunk"
	MsgTypeSnapCommit    = "snapcommit"
)

// syncMsgVersion is the encoding version this build speaks.
const syncMsgVersion = 1

// Bounds on untrusted decode inputs. Generous relative to real use but
// far below maxFrameSize, so a hostile peer cannot make a decoder
// allocate unboundedly.
const (
	maxLocatorIDs    = 256
	maxHeadersPerMsg = 4096
	maxHeaderBytes   = 4096
	maxSnapshotChunk = 4 << 20
	maxManifestBytes = 64 << 10
)

// ErrBadSyncMsg reports an undecodable or unsupported sync message.
var ErrBadSyncMsg = errors.New("p2p: malformed sync message")

// MsgGetHeaders asks a peer for best-branch headers above the locator
// (block IDs of the requester's spine, tip first).
type MsgGetHeaders struct {
	Version uint8
	Locator [][32]byte
	// Max caps the response batch.
	Max uint32
}

// MsgHeaders answers MsgGetHeaders with serialized headers in height
// order. Headers stay opaque bytes at this layer — the chain package
// owns their encoding.
type MsgHeaders struct {
	Version uint8
	Headers [][]byte
}

// MsgGetSnapshot requests snapshot data. Chunk == -1 asks for the
// manifest (the serialized snapshot commitment plus the chunk count);
// otherwise it names one chunk of the snapshot at Height.
type MsgGetSnapshot struct {
	Version uint8
	Height  int64
	Chunk   int32
}

// MsgSnapshotChunk carries snapshot data. For a manifest response
// (Chunk == -1) Manifest holds the serialized commitment and Total the
// chunk count; for a data response Payload holds the chunk bytes.
type MsgSnapshotChunk struct {
	Version  uint8
	Height   int64
	Chunk    int32
	Total    int32
	Manifest []byte
	Payload  []byte
}

func (m *MsgGetHeaders) Encode() []byte {
	out := make([]byte, 0, 1+2+32*len(m.Locator)+4)
	out = append(out, syncMsgVersion)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Locator)))
	for i := range m.Locator {
		out = append(out, m.Locator[i][:]...)
	}
	return binary.BigEndian.AppendUint32(out, m.Max)
}

func DecodeGetHeaders(payload []byte) (*MsgGetHeaders, error) {
	if err := checkVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 2 {
		return nil, fmt.Errorf("%w: truncated locator count", ErrBadSyncMsg)
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > maxLocatorIDs {
		return nil, fmt.Errorf("%w: %d locator ids", ErrBadSyncMsg, n)
	}
	if len(rest) != 32*n+4 {
		return nil, fmt.Errorf("%w: getheaders length %d for %d ids", ErrBadSyncMsg, len(payload), n)
	}
	m := &MsgGetHeaders{Version: payload[0], Locator: make([][32]byte, n)}
	for i := 0; i < n; i++ {
		copy(m.Locator[i][:], rest[:32])
		rest = rest[32:]
	}
	m.Max = binary.BigEndian.Uint32(rest)
	return m, nil
}

func (m *MsgHeaders) Encode() []byte {
	size := 1 + 4
	for _, h := range m.Headers {
		size += 4 + len(h)
	}
	out := make([]byte, 0, size)
	out = append(out, syncMsgVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Headers)))
	for _, h := range m.Headers {
		out = binary.BigEndian.AppendUint32(out, uint32(len(h)))
		out = append(out, h...)
	}
	return out
}

func DecodeHeaders(payload []byte) (*MsgHeaders, error) {
	if err := checkVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated header count", ErrBadSyncMsg)
	}
	n := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if n > maxHeadersPerMsg {
		return nil, fmt.Errorf("%w: %d headers", ErrBadSyncMsg, n)
	}
	m := &MsgHeaders{Version: payload[0], Headers: make([][]byte, 0, n)}
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated header %d", ErrBadSyncMsg, i)
		}
		hl := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if hl > maxHeaderBytes || len(rest) < hl {
			return nil, fmt.Errorf("%w: header %d of %d bytes", ErrBadSyncMsg, i, hl)
		}
		m.Headers = append(m.Headers, rest[:hl:hl])
		rest = rest[hl:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSyncMsg, len(rest))
	}
	return m, nil
}

func (m *MsgGetSnapshot) Encode() []byte {
	out := make([]byte, 0, 1+8+4)
	out = append(out, syncMsgVersion)
	out = binary.BigEndian.AppendUint64(out, uint64(m.Height))
	return binary.BigEndian.AppendUint32(out, uint32(m.Chunk))
}

func DecodeGetSnapshot(payload []byte) (*MsgGetSnapshot, error) {
	if err := checkVersion(payload); err != nil {
		return nil, err
	}
	if len(payload) != 1+8+4 {
		return nil, fmt.Errorf("%w: getsnapshot length %d", ErrBadSyncMsg, len(payload))
	}
	return &MsgGetSnapshot{
		Version: payload[0],
		Height:  int64(binary.BigEndian.Uint64(payload[1:9])),
		Chunk:   int32(binary.BigEndian.Uint32(payload[9:13])),
	}, nil
}

func (m *MsgSnapshotChunk) Encode() []byte {
	out := make([]byte, 0, 1+8+4+4+4+len(m.Manifest)+4+len(m.Payload))
	out = append(out, syncMsgVersion)
	out = binary.BigEndian.AppendUint64(out, uint64(m.Height))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Chunk))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Total))
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Manifest)))
	out = append(out, m.Manifest...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Payload)))
	return append(out, m.Payload...)
}

func DecodeSnapshotChunk(payload []byte) (*MsgSnapshotChunk, error) {
	if err := checkVersion(payload); err != nil {
		return nil, err
	}
	rest := payload[1:]
	if len(rest) < 8+4+4+4 {
		return nil, fmt.Errorf("%w: truncated snapshotchunk", ErrBadSyncMsg)
	}
	m := &MsgSnapshotChunk{Version: payload[0]}
	m.Height = int64(binary.BigEndian.Uint64(rest))
	m.Chunk = int32(binary.BigEndian.Uint32(rest[8:]))
	m.Total = int32(binary.BigEndian.Uint32(rest[12:]))
	rest = rest[16:]
	ml := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if ml > maxManifestBytes || len(rest) < ml {
		return nil, fmt.Errorf("%w: manifest of %d bytes", ErrBadSyncMsg, ml)
	}
	m.Manifest = rest[:ml:ml]
	rest = rest[ml:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: truncated payload length", ErrBadSyncMsg)
	}
	pl := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if pl > maxSnapshotChunk || len(rest) != pl {
		return nil, fmt.Errorf("%w: payload of %d bytes with %d present", ErrBadSyncMsg, pl, len(rest))
	}
	m.Payload = rest[:pl:pl]
	return m, nil
}

func checkVersion(payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("%w: empty", ErrBadSyncMsg)
	}
	if payload[0] != syncMsgVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadSyncMsg, payload[0])
	}
	return nil
}
