package p2p

// Typed sync messages for headers-first synchronization and snapshot
// bootstrap, the daemon's only catch-up protocol, each a payload of the
// shared wire format (wire.go). The message *types* stay forward
// compatible the same way the rest of the overlay is — a node simply
// has no handler registered for a type it does not know and ignores it.

// Sync message type names. The request/response pairs are registered
// with Handle and travel point-to-point; snapshot commitments are a
// relay kind and travel by inv/getdata like transactions and blocks.
const (
	MsgTypeGetHeaders    = "getheaders"
	MsgTypeHeaders       = "headers"
	MsgTypeGetSnapshot   = "getsnapshot"
	MsgTypeSnapshotChunk = "snapshotchunk"
	MsgTypeSnapCommit    = "snapcommit"
)

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

// MsgGetHeaders asks a peer for best-branch headers above the locator
// (block IDs of the requester's spine, tip first).
type MsgGetHeaders struct {
	Locator [][32]byte
	// Max caps the response batch.
	Max uint32
}

// MsgHeaders answers MsgGetHeaders with serialized headers in height
// order. Headers stay opaque bytes at this layer — the chain package
// owns their encoding.
type MsgHeaders struct {
	Headers [][]byte
}

// MsgGetSnapshot requests snapshot data. Chunk == -1 asks for the
// manifest (the serialized snapshot commitment plus the chunk count);
// otherwise it names one chunk of the snapshot at Height.
type MsgGetSnapshot struct {
	Height int64
	Chunk  int32
}

// MsgSnapshotChunk carries snapshot data. For a manifest response
// (Chunk == -1) Manifest holds the serialized commitment and Total the
// chunk count; for a data response Payload holds the chunk bytes.
type MsgSnapshotChunk struct {
	Height   int64
	Chunk    int32
	Total    int32
	Manifest []byte
	Payload  []byte
}

func (m *MsgGetHeaders) Encode() []byte {
	w := NewWriter(1 + 2 + 32*len(m.Locator) + 4)
	w.Uint16(uint16(len(m.Locator)))
	for i := range m.Locator {
		w.Fixed(m.Locator[i][:])
	}
	w.Uint32(m.Max)
	return w.Payload()
}

func DecodeGetHeaders(payload []byte) (*MsgGetHeaders, error) {
	r := NewReader(payload)
	m := &MsgGetHeaders{Locator: make([][32]byte, r.Count(int(r.Uint16()), maxLocatorIDs))}
	for i := range m.Locator {
		r.Fixed(m.Locator[i][:])
	}
	m.Max = r.Uint32()
	return m, r.Done()
}

func (m *MsgHeaders) Encode() []byte {
	size := 1 + 4
	for _, h := range m.Headers {
		size += 4 + len(h)
	}
	w := NewWriter(size)
	w.Uint32(uint32(len(m.Headers)))
	for _, h := range m.Headers {
		w.Bytes(h)
	}
	return w.Payload()
}

func DecodeHeaders(payload []byte) (*MsgHeaders, error) {
	r := NewReader(payload)
	m := &MsgHeaders{Headers: make([][]byte, r.Count(int(r.Uint32()), maxHeadersPerMsg))}
	for i := range m.Headers {
		m.Headers[i] = r.Bytes(maxHeaderBytes)
	}
	return m, r.Done()
}

func (m *MsgGetSnapshot) Encode() []byte {
	w := NewWriter(1 + 8 + 4)
	w.Uint64(uint64(m.Height))
	w.Uint32(uint32(m.Chunk))
	return w.Payload()
}

func DecodeGetSnapshot(payload []byte) (*MsgGetSnapshot, error) {
	r := NewReader(payload)
	m := &MsgGetSnapshot{Height: int64(r.Uint64()), Chunk: int32(r.Uint32())}
	return m, r.Done()
}

func (m *MsgSnapshotChunk) Encode() []byte {
	w := NewWriter(1 + 8 + 4 + 4 + 4 + len(m.Manifest) + 4 + len(m.Payload))
	w.Uint64(uint64(m.Height))
	w.Uint32(uint32(m.Chunk))
	w.Uint32(uint32(m.Total))
	w.Bytes(m.Manifest)
	w.Bytes(m.Payload)
	return w.Payload()
}

func DecodeSnapshotChunk(payload []byte) (*MsgSnapshotChunk, error) {
	r := NewReader(payload)
	m := &MsgSnapshotChunk{Height: int64(r.Uint64()), Chunk: int32(r.Uint32()), Total: int32(r.Uint32())}
	m.Manifest = r.Bytes(maxManifestBytes)
	m.Payload = r.Bytes(maxSnapshotChunk)
	return m, r.Done()
}
