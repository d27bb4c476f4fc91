package rpc

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"bcwan/internal/chain"
)

// Typed parameter decoding shared by the server's method handlers.

// noParams rejects any supplied parameters.
func noParams(params []json.RawMessage) error {
	if len(params) != 0 {
		return &Error{Code: CodeInvalidParams, Message: "expected no parameters"}
	}
	return nil
}

// oneParam decodes a single positional parameter of type T.
func oneParam[T any](params []json.RawMessage) (T, error) {
	var out T
	if len(params) != 1 {
		return out, &Error{Code: CodeInvalidParams, Message: "expected 1 parameter"}
	}
	if err := json.Unmarshal(params[0], &out); err != nil {
		return out, &Error{Code: CodeInvalidParams, Message: err.Error()}
	}
	return out, nil
}

// txIDParam decodes a single hex transaction-id parameter.
func txIDParam(params []json.RawMessage) (chain.Hash, error) {
	s, err := oneParam[string](params)
	if err != nil {
		return chain.Hash{}, err
	}
	id, err := chain.HashFromString(s)
	if err != nil {
		return chain.Hash{}, &Error{Code: CodeInvalidParams, Message: err.Error()}
	}
	return id, nil
}

// pubKeyHashParam decodes a single hex-encoded 20-byte pubkey-hash
// parameter — the address form listunspent and getbalance share.
func pubKeyHashParam(params []json.RawMessage) ([20]byte, error) {
	s, err := oneParam[string](params)
	if err != nil {
		return [20]byte{}, err
	}
	hash, err := DecodePubKeyHash(s)
	if err != nil {
		return [20]byte{}, &Error{Code: CodeInvalidParams, Message: err.Error()}
	}
	return hash, nil
}

// DecodePubKeyHash parses the hex encoding of a 20-byte public-key hash,
// the address format the wallet RPCs use on the wire.
func DecodePubKeyHash(s string) ([20]byte, error) {
	var hash [20]byte
	raw, err := hex.DecodeString(s)
	if err != nil {
		return hash, fmt.Errorf("pubkey hash must be hex: %w", err)
	}
	if len(raw) != len(hash) {
		return hash, fmt.Errorf("pubkey hash must be %d bytes, got %d", len(hash), len(raw))
	}
	copy(hash[:], raw)
	return hash, nil
}

// EncodePubKeyHash renders a pubkey hash in the wire format
// DecodePubKeyHash parses.
func EncodePubKeyHash(hash [20]byte) string { return hex.EncodeToString(hash[:]) }
