package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/cidr09/unbundled/internal/base"
)

// The wire frame codec. One frame carries one message: the kind byte, the
// correlation id, the sender's TC identity and incarnation epoch, the
// LSN argument of watermark/control messages, the opaque body (an encoded
// operation, batch, or result — see the base package codecs), and the
// control-reply error text (rehydrated into the typed taxonomy by
// base.RehydrateWireError on the client side).
//
// The codec is shared by every transport: the simulated fabric uses it for
// its byte accounting, the TCP transport for the real stream framing, and
// the fuzz tests to pin the format. Frames are self-delimiting
// (length-prefixed fields), so a decoded frame also reports how many bytes
// it consumed.
//
// Frame layout (all integers are stdlib varints):
//
//	kind     byte        message kind (msgPerform..msgLastKind)
//	id       uvarint     correlation id (replies echo the request's)
//	tc       uvarint     sender TC identity
//	epoch    uvarint     sender incarnation epoch
//	lsn      uvarint     LSN argument (watermarks, control calls)
//	bodyLen  uvarint     followed by bodyLen opaque body bytes
//	errLen   uvarint     followed by errLen error-text bytes
//
// On a TCP stream each frame is additionally preceded by a 4-byte
// big-endian length so a reader can frame without parsing.

// maxFrameBytes bounds a single decoded frame (stream framing refuses
// anything larger before allocating). The TC ships batches of at most 64
// operations, well below this; the limit exists so a corrupt or hostile
// length prefix cannot drive allocation.
const maxFrameBytes = 1 << 26 // 64 MiB

var errBadFrame = fmt.Errorf("wire: corrupt frame")

// appendFrame serializes m to buf.
func appendFrame(buf []byte, m *message) []byte {
	buf = append(buf, byte(m.kind))
	buf = binary.AppendUvarint(buf, m.id)
	buf = binary.AppendUvarint(buf, uint64(m.tc))
	buf = binary.AppendUvarint(buf, uint64(m.epoch))
	buf = binary.AppendUvarint(buf, uint64(m.lsn))
	buf = binary.AppendUvarint(buf, uint64(len(m.body)))
	buf = append(buf, m.body...)
	buf = binary.AppendUvarint(buf, uint64(len(m.err)))
	buf = append(buf, m.err...)
	return buf
}

// decodeFrame parses one frame from buf and returns the remaining bytes.
// The body is copied out of buf, so the caller may recycle it.
func decodeFrame(buf []byte) (*message, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, errBadFrame
	}
	m := &message{kind: msgKind(buf[0])}
	if m.kind < msgPerform || m.kind > msgLastKind {
		return nil, nil, fmt.Errorf("%w: kind %d", errBadFrame, buf[0])
	}
	buf = buf[1:]
	var err error
	var u uint64
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.id = u
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.tc = base.TCID(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.epoch = base.Epoch(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	m.lsn = base.LSN(u)
	if m.body, buf, err = readLenBytes(buf); err != nil {
		return nil, nil, err
	}
	var errText []byte
	if errText, buf, err = readLenBytes(buf); err != nil {
		return nil, nil, err
	}
	m.err = string(errText)
	return m, buf, nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errBadFrame
	}
	return u, buf[n:], nil
}

func readLenBytes(buf []byte) ([]byte, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return nil, nil, errBadFrame
	}
	if n == 0 {
		return nil, buf, nil
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out, buf[n:], nil
}

// writeFrame writes m to w as one length-prefixed stream frame. scratch, if
// non-nil, is reused for encoding; the (possibly grown) buffer is returned
// so callers can pool it.
func writeFrame(w io.Writer, scratch []byte, m *message) ([]byte, error) {
	buf := append(scratch[:0], 0, 0, 0, 0)
	buf = appendFrame(buf, m)
	n := len(buf) - 4
	if n > maxFrameBytes {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	_, err := w.Write(buf)
	return buf, err
}

// readStreamFrame reads one length-prefixed frame from r.
func readStreamFrame(r *bufio.Reader) (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("%w: stream frame length %d out of range", errBadFrame, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	m, rest, err := decodeFrame(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadFrame, len(rest))
	}
	return m, nil
}
