package tc

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// FuzzTCPayloads feeds arbitrary bytes to every TC-log payload decoder.
// Restart analysis runs them on bytes read back from a log that carries no
// checksum, so no input may panic; and whatever decodes must survive
// encode → decode unchanged.
func FuzzTCPayloads(f *testing.F) {
	op := &base.Op{TC: 3, Kind: base.OpUpdate, Table: "t", Key: "k", Value: []byte("new"), Versioned: true}
	f.Add(encodeOpPayload(op, []byte("old"), true))
	f.Add(encodeOpPayload(&base.Op{TC: 1, Kind: base.OpCommitVersions, Table: "kv", Key: "a", TS: 99}, nil, false))
	f.Add(encodeCommit([]tableKey{{"a", "k1"}, {"b", "k2"}}, 909))
	f.Add(encodeCommit(nil, 0))
	f.Add(encodeCheckpoint(12345, 7))
	f.Add(encodeEpoch(42))
	f.Add(binary.AppendUvarint(nil, 1<<62)) // huge commit key count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if op, prior, found, err := decodeOpPayload(data); err == nil {
			op.LSN, op.Epoch = 0, 0 // the encoding zeroes both
			op2, prior2, found2, err := decodeOpPayload(encodeOpPayload(op, prior, found))
			if err != nil {
				t.Fatalf("op payload re-decode: %v (op %+v)", err, op)
			}
			if !reflect.DeepEqual(op, op2) || !bytes.Equal(prior, prior2) || found != found2 {
				t.Fatalf("op payload round trip:\n got %+v %q %v\nwant %+v %q %v", op2, prior2, found2, op, prior, found)
			}
		}
		if keys, ts, err := decodeCommit(data); err == nil {
			keys2, ts2, err := decodeCommit(encodeCommit(keys, ts))
			if err != nil || ts2 != ts || !reflect.DeepEqual(keys, keys2) {
				t.Fatalf("commit payload round trip: %v %v %v, want %v %v", err, keys2, ts2, keys, ts)
			}
		}
		if rssp, epoch, err := decodeCheckpoint(data); err == nil {
			rssp2, epoch2, err := decodeCheckpoint(encodeCheckpoint(rssp, epoch))
			if err != nil || rssp2 != rssp || epoch2 != epoch {
				t.Fatalf("checkpoint payload round trip: %v %v %v, want %v %v", err, rssp2, epoch2, rssp, epoch)
			}
		}
		if epoch, err := decodeEpoch(data); err == nil {
			if epoch2, err := decodeEpoch(encodeEpoch(epoch)); err != nil || epoch2 != epoch {
				t.Fatalf("epoch payload round trip: %v %v, want %v", err, epoch2, epoch)
			}
		}
	})
}
