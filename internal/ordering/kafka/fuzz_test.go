package kafka

import (
	"bytes"
	"testing"

	"bcrdb/internal/ledger"
)

// FuzzTopicRecord decodes arbitrary bytes as a topic record — what
// seq.publish and seq.record carry between processes over the relay.
// Decoding must not panic, and a record it accepts must encode to bytes
// that decode to the same record and re-encode to themselves.
func FuzzTopicRecord(f *testing.F) {
	tx := mktx("t1")
	tx.Signature = []byte{1, 2}
	f.Add(marshalRecord(record{kind: msgTx, tx: tx, ts: 42}))
	f.Add(marshalRecord(record{kind: msgTTC, ttc: 7, ts: -1}))
	f.Add(marshalRecord(record{kind: msgCheckpoint, ts: 9,
		cp: &ledger.Checkpoint{Peer: "peer0", Block: 3, WriteHash: ledger.Hash{7}, Signature: []byte{5}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := unmarshalRecord(data)
		if err != nil {
			return
		}
		enc := marshalRecord(r)
		again, err := unmarshalRecord(enc)
		if err != nil {
			t.Fatalf("an accepted record's encoding does not decode: %v", err)
		}
		if !sameRecord(r, again) || !bytes.Equal(marshalRecord(again), enc) {
			t.Fatalf("record %+v came back as %+v", r, again)
		}
	})
}

// sameRecord compares two records, their transaction or checkpoint by
// its canonical encoding.
func sameRecord(a, b record) bool {
	if a.kind != b.kind || a.ts != b.ts || a.ttc != b.ttc || (a.tx == nil) != (b.tx == nil) || (a.cp == nil) != (b.cp == nil) {
		return false
	}
	if a.tx != nil && !bytes.Equal(ledger.MarshalTransaction(a.tx), ledger.MarshalTransaction(b.tx)) {
		return false
	}
	return a.cp == nil || bytes.Equal(ledger.MarshalCheckpoint(a.cp), ledger.MarshalCheckpoint(b.cp))
}
