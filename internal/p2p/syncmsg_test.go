package p2p

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestGetHeadersRoundTrip(t *testing.T) {
	m := &MsgGetHeaders{Locator: [][32]byte{{1}, {2, 2}, {3}}, Max: 500}
	got, err := DecodeGetHeaders(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Max != 500 || len(got.Locator) != 3 || got.Locator[1] != m.Locator[1] {
		t.Fatalf("round trip = %+v", got)
	}
	// Empty locator is legal (a from-genesis request).
	empty := &MsgGetHeaders{Max: 10}
	if _, err := DecodeGetHeaders(empty.Encode()); err != nil {
		t.Fatal(err)
	}
}

func TestHeadersRoundTrip(t *testing.T) {
	m := &MsgHeaders{Headers: [][]byte{{0xaa, 0xbb}, {0xcc}}}
	got, err := DecodeHeaders(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Headers) != 2 || !bytes.Equal(got.Headers[0], m.Headers[0]) || !bytes.Equal(got.Headers[1], m.Headers[1]) {
		t.Fatalf("round trip = %+v", got)
	}
	none := &MsgHeaders{}
	if got, err := DecodeHeaders(none.Encode()); err != nil || len(got.Headers) != 0 {
		t.Fatalf("empty batch: %v %+v", err, got)
	}
}

func TestGetSnapshotRoundTrip(t *testing.T) {
	m := &MsgGetSnapshot{Height: 99_328, Chunk: -1}
	got, err := DecodeGetSnapshot(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != 99_328 || got.Chunk != -1 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestSnapshotChunkRoundTrip(t *testing.T) {
	m := &MsgSnapshotChunk{Height: 1024, Chunk: -1, Total: 17, Manifest: []byte("manifest")}
	got, err := DecodeSnapshotChunk(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 17 || got.Chunk != -1 || !bytes.Equal(got.Manifest, m.Manifest) || len(got.Payload) != 0 {
		t.Fatalf("manifest round trip = %+v", got)
	}
	data := &MsgSnapshotChunk{Height: 1024, Chunk: 3, Total: 17, Payload: bytes.Repeat([]byte{7}, 1000)}
	got, err = DecodeSnapshotChunk(data.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Chunk != 3 || !bytes.Equal(got.Payload, data.Payload) {
		t.Fatalf("data round trip: chunk %d, %d payload bytes", got.Chunk, len(got.Payload))
	}
}

func TestSyncMsgRejectsBadInput(t *testing.T) {
	// Unknown version byte.
	m := &MsgGetSnapshot{Height: 5, Chunk: 0}
	enc := m.Encode()
	enc[0] = 99
	if _, err := DecodeGetSnapshot(enc); !errors.Is(err, errMalformed) {
		t.Fatalf("future version: %v", err)
	}
	// Truncations and empty payloads.
	for _, decode := range []func([]byte) error{
		func(b []byte) error { _, err := DecodeGetHeaders(b); return err },
		func(b []byte) error { _, err := DecodeHeaders(b); return err },
		func(b []byte) error { _, err := DecodeGetSnapshot(b); return err },
		func(b []byte) error { _, err := DecodeSnapshotChunk(b); return err },
	} {
		if err := decode(nil); !errors.Is(err, errMalformed) {
			t.Fatalf("empty payload: %v", err)
		}
		if err := decode([]byte{1, 0}); !errors.Is(err, errMalformed) {
			t.Fatalf("truncated payload: %v", err)
		}
	}
	// A headers message lying about its count.
	lying := []byte{1, 0, 0, 0, 5}
	if _, err := DecodeHeaders(lying); !errors.Is(err, errMalformed) {
		t.Fatalf("lying count: %v", err)
	}
}

// TestUnknownMessageTypeTolerated proves old and new nodes coexist: a
// node with no handler for a message type ignores it and keeps serving
// the types it does know.
func TestUnknownMessageTypeTolerated(t *testing.T) {
	tr := NewMemTransport()
	oldNode, err := NewNode(tr, "old", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oldNode.Close()
	newNode, err := NewNode(tr, "new", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer newNode.Close()

	known := make(chan []byte, 4)
	Handle(oldNode, "block", raw, func(from string, payload []byte) { known <- payload })
	if err := newNode.Connect("old"); err != nil {
		t.Fatal(err)
	}

	// The new node speaks messages the old one has never heard of, then
	// a type both understand.
	newNode.SendTo("old", MsgTypeGetHeaders, (&MsgGetHeaders{Max: 10}).Encode())
	newNode.SendTo("old", MsgTypeGetSnapshot, (&MsgGetSnapshot{Height: 9, Chunk: -1}).Encode())
	newNode.SendTo("old", "block", []byte("payload"))

	select {
	case payload := <-known:
		if string(payload) != "payload" {
			t.Fatalf("known message payload = %q", payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("known message never delivered after unknown ones")
	}
}
