package script

import (
	"bytes"
	"testing"

	"bcwan/internal/bccrypto"
)

// The template helpers decode into stack arrays sized to their
// template. The references below are the same matchers written against
// Parse's full instruction slice; FuzzTemplates holds the two to the
// same verdict and the same extracted fields on every input.

func refClassify(s Script) Class {
	instrs, err := Parse(s)
	if err != nil {
		return ClassUnknown
	}
	switch {
	case isP2PKH(instrs):
		return ClassP2PKH
	case len(instrs) == 2 && instrs[0].Op == OpReturn:
		return ClassOpReturn
	case isKeyRelease(instrs):
		return ClassKeyRelease
	case isChannel(instrs):
		return ClassChannel
	default:
		return ClassUnknown
	}
}

func refExtractP2PKHHash(s Script) ([HashLen]byte, bool) {
	var out [HashLen]byte
	instrs, err := Parse(s)
	if err != nil || !isP2PKH(instrs) {
		return out, false
	}
	copy(out[:], instrs[2].Data)
	return out, true
}

func refExtractNullData(s Script) ([]byte, bool) {
	instrs, err := Parse(s)
	if err != nil || len(instrs) != 2 || instrs[0].Op != OpReturn {
		return nil, false
	}
	return instrs[1].Data, true
}

func refParseKeyRelease(s Script) (KeyReleaseParams, bool) {
	instrs, err := Parse(s)
	if err != nil || !isKeyRelease(instrs) {
		return KeyReleaseParams{}, false
	}
	height, err := instructionNum(instrs[8])
	if err != nil {
		return KeyReleaseParams{}, false
	}
	p := KeyReleaseParams{RSAPubKey: instrs[0].Data, RefundHeight: height}
	copy(p.GatewayPubKeyHash[:], instrs[5].Data)
	copy(p.BuyerPubKeyHash[:], instrs[13].Data)
	return p, true
}

func refExtractClaimedRSAKey(s Script) ([]byte, bool) {
	instrs, err := Parse(s)
	if err != nil || len(instrs) != 3 || len(instrs[2].Data) != 8+2*bccrypto.RSA512ModulusLen {
		return nil, false
	}
	return instrs[2].Data, true
}

func refParseChannel(s Script) (ChannelParams, bool) {
	instrs, err := Parse(s)
	if err != nil || !isChannel(instrs) {
		return ChannelParams{}, false
	}
	height, err := instructionNum(instrs[6])
	if err != nil {
		return ChannelParams{}, false
	}
	p := ChannelParams{GatewayPubKey: instrs[1].Data, RecipientPubKey: instrs[3].Data, RefundHeight: height}
	copy(p.FunderPubKeyHash[:], instrs[11].Data)
	return p, true
}

func refIsPushOnly(s Script) bool {
	instrs, err := Parse(s)
	if err != nil {
		return false
	}
	for _, in := range instrs {
		if !in.Op.IsPush() {
			return false
		}
	}
	return true
}

// sameBytes compares extracted fields, nil-ness included: a helper that
// returns an empty push where the reference returns none (or the other
// way round) has drifted.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

// templateScripts returns one output of every template builder.
func templateScripts() map[string]Script {
	var gw, buyer [HashLen]byte
	for i := range gw {
		gw[i], buyer[i] = byte(i+1), byte(0xa0+i)
	}
	kr := KeyRelease(KeyReleaseParams{
		RSAPubKey:         bytes.Repeat([]byte{0x5a}, 72),
		GatewayPubKeyHash: gw,
		BuyerPubKeyHash:   buyer,
		RefundHeight:      1_144,
	})
	return map[string]Script{
		"p2pkh":    PayToPubKeyHash(gw),
		"nulldata": NullData([]byte("bcwan:203.0.113.7:9401")),
		"keyrel":   kr,
		"channel":  Channel(testChannelParams()),
		"unlock":   UnlockP2PKH(bytes.Repeat([]byte{0x30}, 70), bytes.Repeat([]byte{0x02}, 33)),
		"claim": UnlockKeyReleaseClaim(bytes.Repeat([]byte{0x30}, 70), bytes.Repeat([]byte{0x02}, 33),
			bytes.Repeat([]byte{0x11}, 8+2*bccrypto.RSA512ModulusLen)),
		"refund": UnlockKeyReleaseRefund(bytes.Repeat([]byte{0x30}, 70), bytes.Repeat([]byte{0x02}, 33)),
		"close":  UnlockChannelClose(bytes.Repeat([]byte{0x30}, 70), bytes.Repeat([]byte{0x31}, 70)),
	}
}

// repush re-encodes every non-empty data push of s with op (OpPushData1
// or OpPushData2): the same program, spelled non-minimally.
func repush(s Script, op Opcode) Script {
	instrs, err := Parse(s)
	if err != nil {
		return s
	}
	for i, in := range instrs {
		if len(in.Data) > 0 && (op == OpPushData2 || len(in.Data) <= 0xff) {
			instrs[i].Op = op
		}
	}
	return serializeInstructions(instrs)
}

// FuzzTemplates checks every template helper against its Parse-based
// reference: the same match verdict and the same extracted fields.
func FuzzTemplates(f *testing.F) {
	for _, s := range templateScripts() {
		for _, v := range []Script{
			s,
			s[:len(s)-1],
			s[:len(s)/2],
			repush(s, OpPushData1),
			repush(s, OpPushData2),
			append(s[:len(s):len(s)], byte(OpNop)),
			append(s[:len(s):len(s)], 0x01, 0x00),
			append(s[:len(s):len(s)], byte(OpPushData2), 0xff),
		} {
			f.Add([]byte(v))
		}
	}
	f.Add([]byte{byte(OpReturn)})
	f.Add([]byte{byte(OpReturn), byte(OpDup)})
	f.Add([]byte{byte(OpReturn), byte(OpPushData1), 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := Script(raw)
		if got, want := Classify(s), refClassify(s); got != want {
			t.Fatalf("Classify = %v, reference %v\n%x", got, want, raw)
		}

		hash, err := ExtractP2PKHHash(s)
		wantHash, ok := refExtractP2PKHHash(s)
		if (err == nil) != ok || hash != wantHash {
			t.Fatalf("ExtractP2PKHHash = %x, %v; reference %x, %v\n%x", hash, err, wantHash, ok, raw)
		}

		data, err := ExtractNullData(s)
		wantData, ok := refExtractNullData(s)
		if (err == nil) != ok || !sameBytes(data, wantData) {
			t.Fatalf("ExtractNullData = %x, %v; reference %x, %v\n%x", data, err, wantData, ok, raw)
		}

		kr, err := ParseKeyRelease(s)
		wantKR, ok := refParseKeyRelease(s)
		if (err == nil) != ok || !sameBytes(kr.RSAPubKey, wantKR.RSAPubKey) ||
			kr.GatewayPubKeyHash != wantKR.GatewayPubKeyHash || kr.BuyerPubKeyHash != wantKR.BuyerPubKeyHash ||
			kr.RefundHeight != wantKR.RefundHeight {
			t.Fatalf("ParseKeyRelease = %+v, %v; reference %+v, %v\n%x", kr, err, wantKR, ok, raw)
		}

		key, err := ExtractClaimedRSAKey(s)
		wantKey, ok := refExtractClaimedRSAKey(s)
		if (err == nil) != ok || !sameBytes(key, wantKey) {
			t.Fatalf("ExtractClaimedRSAKey = %x, %v; reference %x, %v\n%x", key, err, wantKey, ok, raw)
		}

		ch, err := ParseChannel(s)
		wantCh, ok := refParseChannel(s)
		if (err == nil) != ok || !sameBytes(ch.GatewayPubKey, wantCh.GatewayPubKey) ||
			!sameBytes(ch.RecipientPubKey, wantCh.RecipientPubKey) ||
			ch.FunderPubKeyHash != wantCh.FunderPubKeyHash || ch.RefundHeight != wantCh.RefundHeight {
			t.Fatalf("ParseChannel = %+v, %v; reference %+v, %v\n%x", ch, err, wantCh, ok, raw)
		}

		if got, want := s.IsPushOnly(), refIsPushOnly(s); got != want {
			t.Fatalf("IsPushOnly = %v, reference %v\n%x", got, want, raw)
		}
	})
}

// TestTemplateMatchersDoNotAllocate is the tripwire for a template
// check building an instruction slice again: the UTXO set classifies
// every output it creates and spends, the registry every OP_RETURN.
func TestTemplateMatchersDoNotAllocate(t *testing.T) {
	scripts := templateScripts()
	scripts["junk"] = Script{byte(OpDup), byte(OpPushData2), 0xff, 0xff, 0x01}
	scripts["long"] = bytes.Repeat([]byte{byte(OpNop)}, 200)
	for name, s := range scripts {
		allocs := testing.AllocsPerRun(100, func() {
			Classify(s)
			ExtractP2PKHHash(s)
			ExtractNullData(s)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Classify+ExtractP2PKHHash+ExtractNullData, want 0", name, allocs)
		}
	}
}
