// Package wal implements the log manager used by both the transactional
// component (the TC-log of §4.1.1, whose LSNs double as operation request
// IDs) and the data component (the DC-log of §5.2.2, whose dLSNs make
// system-transaction recovery idempotent).
//
// The log owns LSN allocation: every allocation is monotonically
// increasing, and an allocation may or may not carry a record. The TC uses
// record-less allocations for reads, which need unique request IDs but no
// redo information. After a crash the tail above the force boundary is
// lost and the LSN space above the stable end is reused — the abstract-LSN
// contract in package ablsn is designed for exactly this.
//
// A Log holds one in-memory copy of each retained record: the decoded
// *Record, which undo (Get) and redo (Scan) consume directly. A Record and
// its Payload belong to the log once appended; the caller must not modify
// them. An append is also encoded into a reused tail buffer, to count the
// log volume and, for a file-backed log, to be written by the next force.
//
// File format (Open): a 16-byte header — the 8-byte magic "unbwal1\n" and
// the big-endian truncation bound, the highest LSN a truncation discarded —
// then the records, in LSN order, each as (*Record).Append encodes it. The
// encoding is self-delimiting, so records sit back to back. A force appends
// the tail and fsyncs; a truncation rewrites the file atomically (tmp file,
// fsync, rename). Everything in the file was forced, except that a kill
// mid-append can leave a torn final record, which Open cuts away.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/storage"
)

// Record is one log record. Kind values are interpreted by the owner (TC
// or DC); wal treats them opaquely.
type Record struct {
	LSN      base.LSN
	Kind     uint8
	Txn      base.TxnID
	Prev     base.LSN // previous record of the same transaction (undo chain)
	NextUndo base.LSN // for compensation records: next record to undo
	Payload  []byte
}

// Append encodes r into buf.
func (r *Record) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = append(buf, r.Kind)
	buf = binary.AppendUvarint(buf, uint64(r.Txn))
	buf = binary.AppendUvarint(buf, uint64(r.Prev))
	buf = binary.AppendUvarint(buf, uint64(r.NextUndo))
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	return append(buf, r.Payload...)
}

// DecodeRecord parses the record (*Record).Append encoded at the front of
// buf and returns it with the bytes that follow it.
func DecodeRecord(buf []byte) (*Record, []byte, error) {
	var r Record
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, errCorrupt
	}
	r.LSN, buf = base.LSN(u), buf[n:]
	if len(buf) < 1 {
		return nil, nil, errCorrupt
	}
	r.Kind, buf = buf[0], buf[1:]
	if u, n = binary.Uvarint(buf); n <= 0 {
		return nil, nil, errCorrupt
	}
	r.Txn, buf = base.TxnID(u), buf[n:]
	if u, n = binary.Uvarint(buf); n <= 0 {
		return nil, nil, errCorrupt
	}
	r.Prev, buf = base.LSN(u), buf[n:]
	if u, n = binary.Uvarint(buf); n <= 0 {
		return nil, nil, errCorrupt
	}
	r.NextUndo, buf = base.LSN(u), buf[n:]
	if u, n = binary.Uvarint(buf); n <= 0 {
		return nil, nil, errCorrupt
	}
	buf = buf[n:]
	if u > uint64(len(buf)) {
		return nil, nil, errCorrupt
	}
	if u > 0 {
		r.Payload = make([]byte, u)
		copy(r.Payload, buf[:u])
	}
	return &r, buf[u:], nil
}

var errCorrupt = errors.New("wal: corrupt record")

const (
	magic     = "unbwal1\n"
	headerLen = len(magic) + 8
	// maxSpare bounds the forced tail buffer kept for reuse, so one large
	// force does not pin its buffer for the life of the log.
	maxSpare = 64 << 10
)

// Log is a write-ahead log. All methods are safe for concurrent use.
type Log struct {
	// ForceDelay simulates the latency of a stable force (fsync). The
	// mutex is not held while a force sleeps or writes, so concurrent
	// appends proceed — this is what makes group forcing observable.
	ForceDelay time.Duration

	mu   sync.Mutex
	cond *sync.Cond // broadcast when busy clears
	// busy is set while a force or a truncation rewrite runs outside mu;
	// it serializes them with each other and with Crash.
	busy   bool
	recs   []*Record // retained records in LSN order
	stable int       // recs[:stable] are stable
	tail   []byte    // encoded records a force has not yet taken (file-backed only)
	spare  []byte    // a forced tail buffer, kept for reuse
	next   base.LSN  // next LSN to allocate
	forced base.LSN  // EOSL: all records with LSN <= forced are stable
	last   base.LSN  // last appended record LSN
	bound  base.LSN  // highest truncated-away LSN: stable forever

	path string   // backing file; "" for an in-memory log
	file *os.File // path, open for append; used only while busy is held

	forces, noopForces, bytes atomic.Uint64
}

// New returns an empty in-memory log. Its stable records survive Crash
// but not the process.
func New() *Log {
	l := &Log{next: 1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Open returns a log backed by the file at path, creating it if needed.
// The records a previous incarnation forced there are reloaded as stable,
// the force boundary is the stable end, and LSN allocation resumes just
// above it — LSNs of lost tail records are reused, as §5.3.2 requires the
// rest of the system to tolerate.
func Open(path string) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	os.Remove(path + ".tmp") // torn truncation rewrite from a kill
	l := New()
	l.path = path
	data, err := os.ReadFile(path)
	missing := os.IsNotExist(err)
	clean := 0
	if err == nil {
		if l.bound, l.recs, clean, err = parseImage(data); err != nil {
			return nil, fmt.Errorf("wal: log %s: %w", path, err)
		}
	} else if !missing {
		return nil, err
	}
	l.stable = len(l.recs)
	l.reset()
	// A new file gets its header. A torn final record must go before the
	// next append, or it would sit between old and new records and corrupt
	// the next reopen.
	if missing || clean < len(data) {
		if err := storage.WriteFileAtomic(path, appendImage(nil, l.bound, l.recs), true); err != nil {
			return nil, err
		}
	}
	if l.file, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		return nil, err
	}
	return l, nil
}

// appendImage appends to buf a clean file image holding recs under the
// truncation bound.
func appendImage(buf []byte, bound base.LSN, recs []*Record) []byte {
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(bound))
	for _, r := range recs {
		buf = r.Append(buf)
	}
	return buf
}

// parseImage parses a log file image. It returns the header's truncation
// bound, the whole records that follow it, and the length of the clean
// prefix they end: parsing stops at the first record that does not
// decode, which is the torn final record a kill mid-append can leave. The
// record LSNs must strictly increase above the bound, or allocation would
// resume below an LSN already in the log.
func parseImage(data []byte) (bound base.LSN, recs []*Record, clean int, err error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return 0, nil, 0, errors.New("not a log file")
	}
	bound = base.LSN(binary.BigEndian.Uint64(data[len(magic):headerLen]))
	prev, rest := bound, data[headerLen:]
	for len(rest) > 0 {
		r, next, err := DecodeRecord(rest)
		if err != nil {
			break
		}
		if r.LSN <= prev {
			return 0, nil, 0, fmt.Errorf("record LSN %d not above %d", r.LSN, prev)
		}
		recs = append(recs, r)
		prev, rest = r.LSN, next
	}
	return bound, recs, len(data) - len(rest), nil
}

// reset points the force boundary and LSN allocation just above the stable
// records and the truncation bound. Truncated records were stable by
// contract, and stable state elsewhere (page dLSN stamps, abstract LSNs)
// still references their LSN space, so allocation never resumes at or
// below the bound: idempotence tests would mistake new records for
// already-applied old ones.
func (l *Log) reset() {
	l.forced = l.bound
	if l.stable > 0 {
		l.forced = max(l.forced, l.recs[l.stable-1].LSN)
	}
	l.last = l.forced
	l.next = l.forced + 1
}

// AllocLSN reserves the next LSN without writing a record (unique request
// IDs for reads, §4.2).
func (l *Log) AllocLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.next
	l.next++
	return lsn
}

// AppendAssign atomically assigns the next LSN to r and appends it. It
// returns the assigned LSN. The record is volatile until forced. The tail
// is encoded under the same mutex, so the file order always equals the
// LSN order; OPSR for the TC-log depends on this.
func (l *Log) AppendAssign(r *Record) base.LSN {
	l.mu.Lock()
	r.LSN = l.next
	l.next++
	l.last = r.LSN
	l.recs = append(l.recs, r)
	n := len(l.tail)
	l.tail = r.Append(l.tail)
	l.bytes.Add(uint64(len(l.tail) - n))
	if l.path == "" {
		l.tail = l.tail[:n] // counted; there is no file to write it to
	}
	l.mu.Unlock()
	return r.LSN
}

// ForceTo blocks until all records with LSN <= lsn are stable. Concurrent
// callers are group-forced: one caller performs the force while the others
// wait, so a single (simulated) fsync can commit many transactions. A call
// that returns without forcing itself counts as a no-op force.
func (l *Log) ForceTo(lsn base.LSN) {
	l.mu.Lock()
	forced := false
	for l.forced < lsn {
		if l.busy {
			l.cond.Wait()
			continue
		}
		if l.stable == len(l.recs) {
			// The log is fully stable yet the target is still ahead: the
			// caller names an LSN that was never appended in this
			// incarnation. Waiting would hang forever, so fail loudly.
			end := l.forced
			l.mu.Unlock()
			panic(fmt.Sprintf("wal: ForceTo(%d) beyond fully-stable log end %d", lsn, end))
		}
		l.force()
		forced = true
	}
	l.mu.Unlock()
	if !forced {
		l.noopForces.Add(1)
	}
}

// force makes every appended record stable. The caller holds mu with busy
// clear; force releases mu while it sleeps and writes, so appends proceed
// and records appended meanwhile stay volatile until the next force.
func (l *Log) force() {
	l.busy = true
	n, buf := len(l.recs), l.tail
	l.tail, l.spare = l.spare, nil
	l.mu.Unlock()
	if l.ForceDelay > 0 {
		time.Sleep(l.ForceDelay)
	}
	if l.file != nil {
		if _, err := l.file.Write(buf); err != nil {
			panic(fmt.Sprintf("wal: log append %s: %v", l.path, err))
		}
		if err := l.file.Sync(); err != nil {
			panic(fmt.Sprintf("wal: log fsync %s: %v", l.path, err))
		}
	}
	l.mu.Lock()
	if cap(buf) <= maxSpare {
		l.spare = buf[:0]
	}
	l.stable = n
	l.forced = l.recs[n-1].LSN
	l.busy = false
	l.forces.Add(1)
	l.cond.Broadcast()
}

// Force makes every appended record stable.
func (l *Log) Force() {
	l.mu.Lock()
	target := l.last
	l.mu.Unlock()
	l.ForceTo(target)
}

// EOSL returns the end of the stable log: every record with LSN <= EOSL
// survives a crash (§4.2.1 end_of_stable_log).
func (l *Log) EOSL() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forced
}

// LastLSN returns the LSN of the most recently appended record.
func (l *Log) LastLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// NextLSN returns the next LSN that would be allocated (diagnostics).
func (l *Log) NextLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Crash simulates losing the volatile tail. The log reverts to the stable
// prefix and LSN allocation restarts just above it. A force in flight
// completes first: its records were handed to the media, so they are
// stable.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.busy {
		l.cond.Wait()
	}
	clear(l.recs[l.stable:])
	l.recs = l.recs[:l.stable]
	l.tail = l.tail[:0]
	l.reset()
}

// Scan returns the stable records with LSN >= from, in LSN order. Volatile
// tail records are not returned: recovery must only see the stable log.
func (l *Log) Scan(from base.LSN) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	stable := l.recs[:l.stable]
	i := sort.Search(len(stable), func(i int) bool { return stable[i].LSN >= from })
	return slices.Clone(stable[i:])
}

// Get returns the record with exactly the given LSN (stable or volatile),
// or nil. Used for undo chain walks during normal rollback.
func (l *Log) Get(lsn base.LSN) *Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.recs), func(i int) bool { return l.recs[i].LSN >= lsn })
	if i < len(l.recs) && l.recs[i].LSN == lsn {
		return l.recs[i]
	}
	return nil
}

// Truncate discards stable records with LSN < before (contract
// termination: the checkpoint protocol has released the resend obligation
// for them, §4.2.1). A file-backed log rewrites its file, with the new
// truncation bound in the header, outside the mutex: appends proceed
// meanwhile, and forces wait until the new file is in place.
func (l *Log) Truncate(before base.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.busy {
		l.cond.Wait()
	}
	i := sort.Search(l.stable, func(i int) bool { return l.recs[i].LSN >= before })
	if i == 0 {
		return
	}
	l.bound = max(l.bound, l.recs[i-1].LSN)
	l.recs = slices.Clone(l.recs[i:])
	l.stable -= i
	if l.path == "" {
		return
	}
	l.busy = true
	bound, keep := l.bound, l.recs[:l.stable:l.stable]
	l.mu.Unlock()
	err := storage.WriteFileAtomic(l.path, appendImage(nil, bound, keep), true)
	if err == nil {
		l.file.Close()
		l.file, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	}
	l.mu.Lock()
	if err != nil {
		panic(fmt.Sprintf("wal: log truncate rewrite %s: %v", l.path, err))
	}
	l.busy = false
	l.cond.Broadcast()
}

// StartLSN returns the LSN of the first retained record, or 0 if empty.
func (l *Log) StartLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0
	}
	return l.recs[0].LSN
}

// Forces returns the number of forces performed (the fsync count).
func (l *Log) Forces() uint64 { return l.forces.Load() }

// NoopForces returns the number of ForceTo calls that returned without
// forcing: a neighbour's force (group commit) or an earlier one already
// covered them. Forces()+NoopForces() is the number of ForceTo calls.
func (l *Log) NoopForces() uint64 { return l.noopForces.Load() }

// AppendedBytes returns the total encoded size of appended records (log
// volume for benches).
func (l *Log) AppendedBytes() uint64 { return l.bytes.Load() }

// Media returns the log itself, which carries the media counters.
func (l *Log) Media() *Log { return l }
