package tc

import (
	"encoding/binary"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
)

// Op-record payload: the logical operation (LSN zeroed; the record's own
// LSN is authoritative) plus the undo information captured before the send
// (§4.1.1(3): "Undo logging in the TC will enable rollback … by providing
// information TC can use to submit inverse logical operations").
func encodeOpPayload(op *base.Op, prior []byte, priorFound bool) []byte {
	saved, savedEpoch := op.LSN, op.Epoch
	// LSN and epoch are zeroed in the payload: the record's own LSN is
	// authoritative, and redo stamps the *restarted* incarnation's epoch —
	// a logged (dead) epoch would be refused by the DC fence.
	op.LSN, op.Epoch = 0, 0
	buf := base.AppendOp(nil, op)
	op.LSN, op.Epoch = saved, savedEpoch
	buf = binary.AppendUvarint(buf, uint64(len(prior)))
	buf = append(buf, prior...)
	if priorFound {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func decodeOpPayload(payload []byte) (op *base.Op, prior []byte, priorFound bool, err error) {
	op, rest, err := base.DecodeOp(payload)
	if err != nil {
		return nil, nil, false, err
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, nil, false, fmt.Errorf("tc: corrupt op payload")
	}
	rest = rest[w:]
	if n > 0 {
		prior = append([]byte(nil), rest[:n]...)
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return nil, nil, false, fmt.Errorf("tc: corrupt op payload")
	}
	return op, prior, rest[0] != 0, nil
}

// Commit-record payload: the versioned write set plus the commit
// timestamp, so restart can re-issue commit-versions operations for
// winners whose finalize messages were lost with the crashed TC (§6.2.2's
// guarantee that before versions are eventually removed) at the same
// visibility point, and so analysis can re-seed the timestamp allocator
// above every durable commit.
func encodeCommit(keys []tableKey, ts base.TS) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, tk := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(tk.table)))
		buf = append(buf, tk.table...)
		buf = binary.AppendUvarint(buf, uint64(len(tk.key)))
		buf = append(buf, tk.key...)
	}
	if ts != 0 {
		buf = binary.AppendUvarint(buf, uint64(ts))
	}
	return buf
}

func decodeCommit(payload []byte) ([]tableKey, base.TS, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 {
		return nil, 0, fmt.Errorf("tc: corrupt commit payload")
	}
	payload = payload[w:]
	// n comes from log bytes the log does not checksum: cap the
	// preallocation by what the rest can hold (each entry needs at least
	// two length bytes), so a corrupt count fails the decode below instead
	// of panicking in make.
	out := make([]tableKey, 0, min(n, uint64(len(payload)/2)))
	readStr := func() (string, bool) {
		m, w := binary.Uvarint(payload)
		if w <= 0 || m > uint64(len(payload)-w) {
			return "", false
		}
		s := string(payload[w : w+int(m)])
		payload = payload[w+int(m):]
		return s, true
	}
	for i := uint64(0); i < n; i++ {
		table, ok := readStr()
		if !ok {
			return nil, 0, fmt.Errorf("tc: corrupt commit payload")
		}
		key, ok := readStr()
		if !ok {
			return nil, 0, fmt.Errorf("tc: corrupt commit payload")
		}
		out = append(out, tableKey{table, key})
	}
	// Pre-timestamp records end here; they decode with timestamp zero.
	if len(payload) == 0 {
		return out, 0, nil
	}
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return nil, 0, fmt.Errorf("tc: corrupt commit payload")
	}
	return out, base.TS(u), nil
}

// Checkpoint-record payload: the redo scan start point plus the current
// incarnation epoch. Carrying the epoch here guarantees the stable log
// always holds the newest epoch even after truncation discards the
// recEpoch record (a checkpoint appends its record before truncating).
func encodeCheckpoint(rssp base.LSN, epoch base.Epoch) []byte {
	buf := binary.AppendUvarint(nil, uint64(rssp))
	return binary.AppendUvarint(buf, uint64(epoch))
}

func decodeCheckpoint(payload []byte) (base.LSN, base.Epoch, error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, 0, fmt.Errorf("tc: corrupt checkpoint payload")
	}
	payload = payload[w:]
	// Pre-epoch records end here; they decode with epoch zero.
	if len(payload) == 0 {
		return base.LSN(u), 0, nil
	}
	e, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, 0, fmt.Errorf("tc: corrupt checkpoint payload")
	}
	return base.LSN(u), base.Epoch(e), nil
}

// Epoch-record payload: the minted incarnation epoch.
func encodeEpoch(epoch base.Epoch) []byte {
	return binary.AppendUvarint(nil, uint64(epoch))
}

func decodeEpoch(payload []byte) (base.Epoch, error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, fmt.Errorf("tc: corrupt epoch payload")
	}
	return base.Epoch(u), nil
}
