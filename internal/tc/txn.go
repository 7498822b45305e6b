package tc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/clock"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/wal"
)

// Errors surfaced to transaction code.
var (
	// ErrTxnDone is returned when using a committed/aborted transaction.
	ErrTxnDone = errors.New("tc: transaction already finished")
	// ErrNotFound mirrors base.CodeNotFound at the transaction API.
	ErrNotFound = errors.New("tc: key not found")
	// ErrDuplicate mirrors base.CodeDuplicate.
	ErrDuplicate = errors.New("tc: key already exists")
	// ErrScanUnstable is returned when the fetch-ahead protocol cannot
	// stabilize a range read (sustained insert churn in the range).
	ErrScanUnstable = errors.New("tc: fetch-ahead scan did not stabilize")
)

// SnapshotPolicy selects how a read-only transaction obtains its
// consistent view.
type SnapshotPolicy uint8

const (
	// SnapshotFresh (the default) reads at a fresh timestamp: the clock
	// reading plus its uncertainty bound. Begin waits out the uncertainty
	// window, so every transaction whose commit completed in real time
	// before the snapshot began is visible — external consistency. With
	// the default zero-uncertainty System clock the wait is free.
	SnapshotFresh SnapshotPolicy = iota
	// SnapshotBounded reads at now minus TxnOptions.Staleness (clamped to
	// the TC's SnapshotRetention): no uncertainty wait and usually no
	// safe-timestamp wait either, trading freshness for latency.
	SnapshotBounded
	// SnapshotLocked is the pre-snapshot posture: a read-only transaction
	// that still takes shared locks and reads current state through the
	// TC. It exists for comparison (experiment E9) and for callers that
	// need read-your-lock semantics against unversioned writers.
	SnapshotLocked
)

// TxnOptions shapes one transaction. The zero value is a plain
// (unversioned, read-write) transaction using the TC's configured lock
// timeout.
type TxnOptions struct {
	// Versioned makes writes keep before versions (§6.2.2), enabling
	// cross-TC read-committed readers and cheap undo. Versioned commits
	// carry a commit timestamp, which is what makes the writes visible to
	// snapshot readers.
	Versioned bool
	// ReadOnly refuses every mutation with base.ErrReadOnly and — unless
	// Snapshot is SnapshotLocked — turns the transaction into a snapshot
	// read: Begin draws a read timestamp, and every Read/Scan is served
	// by the DC at that timestamp without locks, without consuming LSNs,
	// and without any TC round trip.
	ReadOnly bool
	// Snapshot selects the read-only view policy; ignored unless ReadOnly.
	Snapshot SnapshotPolicy
	// Staleness is how far behind now a SnapshotBounded view may read
	// (clamped to the TC's SnapshotRetention); ignored otherwise.
	Staleness time.Duration
	// LockTimeout overrides the TC's configured lock-wait bound for this
	// transaction: positive bounds each wait, negative waits forever, zero
	// keeps the TC default.
	LockTimeout time.Duration
}

// lockWait resolves the per-transaction lock-wait bound against the TC
// default (0 means wait forever at the lock manager).
func (o TxnOptions) lockWait(def time.Duration) time.Duration {
	switch {
	case o.LockTimeout > 0:
		return o.LockTimeout
	case o.LockTimeout < 0:
		return 0
	default:
		return def
	}
}

type txnState uint8

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

type tableKey struct{ table, key string }

type cachedVal struct {
	val   []byte
	found bool
}

// Txn is one user transaction executing at this TC. A transaction is used
// from a single goroutine (many transactions run concurrently). It carries
// the context it was begun with: every lock wait and read honors that
// context's cancellation and deadline, while the delivery of logged writes
// deliberately does not (see flush).
type Txn struct {
	tc    *TC
	ctx   context.Context
	opts  TxnOptions
	id    base.TxnID
	state txnState
	// firstLSN/lastLSN delimit the undo chain in the TC-log.
	firstLSN, lastLSN base.LSN
	// cache holds values read or written under locks this transaction
	// already holds; locked values cannot change underfoot (strict 2PL),
	// so cached copies are authoritative and spare read-before-write
	// round trips to the DC.
	cache map[tableKey]cachedVal
	// versioned tracks keys written with versioning; commit/abort send
	// the §6.2.2 finalize operations for them.
	versioned map[tableKey]struct{}
	// out holds the logged operations not yet shipped, per DC index in
	// log order; flush delivers them at the transaction's barriers.
	out [][]*base.Op
	// shipErr is the first permanent delivery failure; every later flush
	// reports it.
	shipErr error
	// snapTS is the snapshot read timestamp (nonzero only for snapshot
	// transactions): every read is served by the DC at this timestamp.
	snapTS base.TS
	// commitTS is the commit timestamp assigned when a versioned
	// transaction commits; it holds the TC's safe timestamp down until
	// the finalize operations are acknowledged.
	commitTS base.TS
}

// Begin starts a transaction shaped by opts, bound to ctx. A nil ctx is
// treated as context.Background().
func (t *TC) Begin(ctx context.Context, opts TxnOptions) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	t.begun.Add(1)
	t.mu.Lock()
	t.nextTxn++
	id := base.TxnID(t.nextTxn)
	x := &Txn{tc: t, ctx: ctx, opts: opts, id: id, cache: make(map[tableKey]cachedVal)}
	if opts.Versioned {
		x.versioned = make(map[tableKey]struct{})
	}
	t.txns[id] = x
	t.mu.Unlock()
	if opts.ReadOnly && opts.Snapshot != SnapshotLocked {
		x.beginSnapshot()
	}
	return x
}

// beginSnapshot draws the transaction's read timestamp and registers it
// so the TC's GC horizon cannot pass it while the snapshot is live. A
// fresh snapshot then waits out the clock's uncertainty window: once
// WaitUntilAfter returns, no clock in the deployment can still read
// snapTS or earlier, so no later-starting commit can be assigned a
// timestamp at or below it — reads at snapTS are externally consistent.
// A cancelled wait is not an error here; the reads themselves honor the
// context and will fail promptly.
func (x *Txn) beginSnapshot() {
	t := x.tc
	now, unc := t.clock.Now()
	snap := now + base.TS(unc)
	if x.opts.Snapshot == SnapshotBounded {
		back := x.opts.Staleness
		if back > t.cfg.SnapshotRetention {
			back = t.cfg.SnapshotRetention
		}
		snap = 1
		if now > base.TS(back) {
			snap = now - base.TS(back)
		}
	}
	t.tsMu.Lock()
	if x.opts.Snapshot != SnapshotBounded && t.lastCommit > snap {
		// Never read below this TC's own newest commit: guarantees fresh
		// snapshots observe local commits even when the clock has not yet
		// caught the allocator up (frozen test clocks, bursts of commits
		// within one clock tick).
		snap = t.lastCommit
	}
	x.snapTS = snap
	t.activeSnaps[snap]++
	t.tsMu.Unlock()
	t.snapshots.Add(1)
	if x.opts.Snapshot != SnapshotBounded && unc > 0 {
		_ = clock.WaitUntilAfter(x.ctx, t.clock, snap)
	}
}

// SnapshotTS returns the snapshot read timestamp, zero for transactions
// that are not snapshot reads.
func (x *Txn) SnapshotTS() base.TS { return x.snapTS }

// RunTxnOnce runs fn inside a single transaction attempt: commit on
// success, abort on failure, no retry. Callers owning their own retry
// policy (the deployment client) build on this.
func (t *TC) RunTxnOnce(ctx context.Context, opts TxnOptions, fn func(*Txn) error) error {
	if t.draining.Load() {
		// The admission gate of the drain protocol (see Drain): refuse
		// before anything is locked or logged, typed and transient so the
		// deployment client re-routes to another TC or retries later.
		t.drainRejects.Add(1)
		return fmt.Errorf("tc %d: %w", t.cfg.ID, base.ErrDraining)
	}
	x := t.Begin(ctx, opts)
	if err := fn(x); err != nil {
		_ = x.Abort()
		return err
	}
	return x.Commit()
}

// RunTxn runs fn inside a transaction, committing on success and retrying
// immediately (with a fresh transaction) on deadlock or lock-timeout
// aborts, up to a bounded number of attempts. The deployment-level client
// adds routing and backoff on top of RunTxnOnce instead.
func (t *TC) RunTxn(ctx context.Context, opts TxnOptions, fn func(*Txn) error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		err = t.RunTxnOnce(ctx, opts, fn)
		if err == nil {
			return nil
		}
		if !errors.Is(err, base.ErrDeadlock) && !errors.Is(err, base.ErrLockTimeout) {
			return err
		}
		t.retries.Add(1)
	}
	return err
}

// ID returns the transaction identifier.
func (x *Txn) ID() base.TxnID { return x.id }

// Context returns the context the transaction was begun with.
func (x *Txn) Context() context.Context { return x.ctx }

// lockFor acquires the transactional lock guarding a single-key access.
// Under the static-range protocol the bucket is locked instead of the key
// (§3.1: fewer locks, less concurrency). The wait honors the transaction's
// context and per-transaction lock timeout; any failure aborts the
// transaction (locks may not be left half-acquired).
func (x *Txn) lockFor(table, key string, mode lockmgr.Mode) error {
	var res lockmgr.Resource
	if x.tc.cfg.Protocol == StaticRange {
		res = lockmgr.RangeRes(table, x.tc.Partition(table).Locate(key))
	} else {
		res = lockmgr.KeyRes(table, key)
	}
	return x.lock(res, mode)
}

func (x *Txn) lock(res lockmgr.Resource, mode lockmgr.Mode) error {
	err := x.tc.locks.LockWait(x.ctx, x.id, res, mode, x.opts.lockWait(x.tc.cfg.LockTimeout))
	if err != nil {
		if errors.Is(err, errLockTableLost) {
			// The incarnation that owned this wait crashed: restart
			// analysis undoes whatever the transaction logged, so the
			// orphan must not roll itself back — its inverse operations
			// would race the new incarnation, against which it holds no
			// locks. It just dies and reports a transient failure.
			x.state = txnAborted
			x.tc.mu.Lock()
			delete(x.tc.txns, x.id)
			x.tc.mu.Unlock()
			return err
		}
		if errors.Is(err, base.ErrDeadlock) {
			x.tc.deadlocks.Add(1)
		}
		_ = x.Abort()
	}
	return err
}

// Read returns the value of key as of the transaction's view. In a
// snapshot transaction that is the version visible at the snapshot
// timestamp, served by the DC without locks and without TC involvement;
// otherwise it is the committed-by-lock value in this TC's partition
// (plain read under a shared lock; the owner also sees its own writes).
func (x *Txn) Read(table, key string) ([]byte, bool, error) {
	if x.state != txnActive {
		return nil, false, ErrTxnDone
	}
	if c, ok := x.cache[tableKey{table, key}]; ok {
		return c.val, c.found, nil
	}
	if x.snapTS != 0 {
		return x.snapshotRead(table, key)
	}
	if err := x.lockFor(table, key, lockmgr.S); err != nil {
		return nil, false, err
	}
	return x.readOp(table, key, base.ReadPlain, true)
}

// snapshotRead serves a point read at the snapshot timestamp: shipped
// straight to the DC with no lock, no LSN, and no log interaction. The
// view at a fixed timestamp is immutable, so results are cached like
// locked reads.
func (x *Txn) snapshotRead(table, key string) ([]byte, bool, error) {
	res, err := x.snapshotOp(&base.Op{TC: x.tc.cfg.ID, Kind: base.OpRead, Table: table, Key: key,
		Flavor: base.ReadSnapshot, TS: x.snapTS})
	if err != nil {
		return nil, false, fmt.Errorf("tc: snapshot read %s/%s: %w", table, key, err)
	}
	switch res.Code {
	case base.CodeOK:
		x.cache[tableKey{table, key}] = cachedVal{val: res.Value, found: true}
		return res.Value, true, nil
	case base.CodeNotFound:
		x.cache[tableKey{table, key}] = cachedVal{found: false}
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("tc: snapshot read %s/%s: %w", table, key, x.resErr(res))
	}
}

// snapshotOp ships one snapshot-flavored operation directly to its DC,
// bypassing the logging/ack machinery entirely: the op carries no LSN
// (nothing tracks it) and Perform is called without going through
// performOn, so OpsSent stays untouched — a snapshot read really is
// zero-TC-round-trip. CodeUnavailable means the DC gave up waiting for
// some TC's safe timestamp to cover snapTS (a TC partitioned or down);
// the read retries after a pause, bounded only by the caller's context,
// because the condition clears as soon as the lagging TC's broadcasts
// resume.
func (x *Txn) snapshotOp(op *base.Op) (*base.Result, error) {
	t := x.tc
	idx, err := t.dcIndex(op.Table, op.Key)
	if err != nil {
		return nil, err
	}
	op.Epoch = t.Epoch()
	h := t.dcs[idx]
	for {
		if err := h.waitReady(x.ctx); err != nil {
			return nil, err
		}
		res := h.svc.Perform(x.ctx, op)
		if res.Code != base.CodeUnavailable {
			return res, nil
		}
		timer := time.NewTimer(10 * time.Millisecond)
		select {
		case <-timer.C:
		case <-x.ctx.Done():
			timer.Stop()
			return nil, base.CancelErr(x.ctx)
		}
	}
}

// readOp issues the read operation (allocating a request ID) and caches.
// Reads are placement-routed but never ownership-checked: §6.1 partitions
// update responsibility only — every TC may read everywhere. An
// unroutable read (no placement clause for the table) aborts the
// transaction like a failed lock would: the transaction cannot proceed
// and locks must not leak.
func (x *Txn) readOp(table, key string, flavor base.ReadFlavor, cache bool) ([]byte, bool, error) {
	idx, err := x.tc.dcIndex(table, key)
	if err != nil {
		_ = x.Abort()
		return nil, false, err
	}
	lsn := x.tc.log.AllocLSN()
	res := x.tc.performOn(x.ctx, x.tc.dcs[idx], &base.Op{TC: x.tc.cfg.ID, LSN: lsn, Kind: base.OpRead,
		Table: table, Key: key, Flavor: flavor})
	switch res.Code {
	case base.CodeOK:
		if cache {
			x.cache[tableKey{table, key}] = cachedVal{val: res.Value, found: true}
		}
		return res.Value, true, nil
	case base.CodeNotFound:
		if cache {
			x.cache[tableKey{table, key}] = cachedVal{found: false}
		}
		return nil, false, nil
	case base.CodeCancelled:
		return nil, false, fmt.Errorf("tc: read %s/%s: %w", table, key, base.CancelErr(x.ctx))
	default:
		return nil, false, fmt.Errorf("tc: read %s/%s: %w", table, key, res.Code.Err())
	}
}

// ReadCommitted reads the last committed version of a key that may belong
// to another TC's update partition. It takes no locks and never blocks:
// versioned data makes this safe (§6.2.2).
func (x *Txn) ReadCommitted(table, key string) ([]byte, bool, error) {
	if x.state != txnActive {
		return nil, false, ErrTxnDone
	}
	if err := x.drain(); err != nil {
		return nil, false, err
	}
	return x.readOp(table, key, base.ReadCommitted, false)
}

// ReadDirty reads the latest (possibly uncommitted) version without
// locking (§6.2.1).
func (x *Txn) ReadDirty(table, key string) ([]byte, bool, error) {
	if x.state != txnActive {
		return nil, false, ErrTxnDone
	}
	if err := x.drain(); err != nil {
		return nil, false, err
	}
	return x.readOp(table, key, base.ReadDirty, false)
}

// drain ships this transaction's logged writes before an operation that
// must observe them at the DC (scans and unlocked reads bypass the
// transaction cache, so read-your-writes needs them delivered). Point
// reads never need it: every logged write is recorded in the cache. The
// wait honors the transaction's context.
func (x *Txn) drain() error { return x.flush(x.ctx) }

// valueOf returns the current value under an already-held X lock, going to
// the DC only when the transaction cache cannot answer.
func (x *Txn) valueOf(table, key string) ([]byte, bool, error) {
	if c, ok := x.cache[tableKey{table, key}]; ok {
		return c.val, c.found, nil
	}
	return x.readOp(table, key, base.ReadPlain, true)
}

// Insert adds a new record; ErrDuplicate if the key exists.
func (x *Txn) Insert(table, key string, val []byte) error {
	return x.write(base.OpInsert, table, key, val)
}

// Update overwrites an existing record; ErrNotFound if absent.
func (x *Txn) Update(table, key string, val []byte) error {
	return x.write(base.OpUpdate, table, key, val)
}

// Upsert writes the record regardless of prior existence.
func (x *Txn) Upsert(table, key string, val []byte) error {
	return x.write(base.OpUpsert, table, key, val)
}

// Delete removes a record; ErrNotFound if absent.
func (x *Txn) Delete(table, key string) error {
	return x.write(base.OpDelete, table, key, nil)
}

// write implements all mutations: X lock, undo capture, logical redo+undo
// logging *before* the send (so the TC-log order is an OPSR order), then
// the operation joins the transaction's outgoing list. The pre-check +
// X-lock invariant guarantees the outcome, so nothing needs the reply
// before the transaction's next barrier (see flush).
//
// Cancellation points are the lock wait and the pre-check read. Once the
// op record is appended, delivery runs to completion whatever the context
// does: see flush.
func (x *Txn) write(kind base.OpKind, table, key string, val []byte) error {
	if x.state != txnActive {
		return ErrTxnDone
	}
	if x.opts.ReadOnly {
		return fmt.Errorf("tc: %s %s/%s: %w", kind, table, key, base.ErrReadOnly)
	}
	// §6.1 enforcement: update responsibility is partitioned among the
	// TCs, and this TC refuses to write outside its own partition —
	// before anything is locked or logged, so a misrouted transaction
	// aborts cleanly with the permanent ErrWrongOwner and its effects
	// never reach a DC owned by somebody else's lock space.
	owner, err := x.tc.router.Owner(table, key)
	if err != nil {
		_ = x.Abort()
		return fmt.Errorf("tc %d: %s %s/%q: %w", x.tc.cfg.ID, kind, table, key, err)
	}
	if owner != 0 && owner != x.tc.cfg.ID {
		_ = x.Abort()
		return fmt.Errorf("tc %d: %s %s/%q is owned by tc %d: %w",
			x.tc.cfg.ID, kind, table, key, owner, base.ErrWrongOwner)
	}
	dcIdx, err := x.tc.dcIndex(table, key)
	if err != nil {
		_ = x.Abort()
		return err
	}
	if err := x.lockFor(table, key, lockmgr.X); err != nil {
		return err
	}
	// Pre-check existence so that every logged operation succeeds at the
	// DC: restart undo can then blindly invert every chained record.
	var prior []byte
	var priorFound bool
	switch kind {
	case base.OpInsert:
		_, found, err := x.valueOf(table, key)
		if err != nil {
			return err
		}
		if found {
			return ErrDuplicate
		}
	case base.OpUpdate, base.OpDelete:
		p, found, err := x.valueOf(table, key)
		if err != nil {
			return err
		}
		if !found {
			return ErrNotFound
		}
		prior, priorFound = p, true
	case base.OpUpsert:
		// Versioned upserts need no pre-check: the DC keeps the before
		// version, the inverse is abort-versions (no prior needed), and
		// upsert semantics do not depend on prior existence. This saves
		// a read round trip per write.
		if !x.opts.Versioned {
			p, found, err := x.valueOf(table, key)
			if err != nil {
				return err
			}
			prior, priorFound = p, found
		}
	}
	op := &base.Op{TC: x.tc.cfg.ID, Kind: kind, Table: table, Key: key,
		Value: val, Versioned: x.opts.Versioned}
	rec := &wal.Record{Kind: recOp, Txn: x.id, Prev: x.lastLSN,
		Payload: encodeOpPayload(op, prior, priorFound)}
	op.Epoch = x.tc.Epoch() // before the LSN assignment; see queue
	lsn := x.tc.log.AppendAssign(rec)
	op.LSN = lsn
	x.queue(op, dcIdx)
	if x.firstLSN == 0 {
		x.firstLSN = lsn
	}
	x.lastLSN = lsn
	tk := tableKey{table, key}
	if kind == base.OpDelete {
		x.cache[tk] = cachedVal{found: false}
	} else {
		x.cache[tk] = cachedVal{val: val, found: true}
	}
	if x.opts.Versioned {
		x.versioned[tk] = struct{}{}
	}
	return nil
}

// ErrCommitAmbiguous marks a Commit that failed after the commit record
// was appended: the transaction's outcome is decided by the log (a winner
// if the record reaches stability, lost otherwise), not by this error.
// Callers must NOT re-execute the transaction on it — re-running could
// apply its effects twice — even when the underlying failure (a closed
// component, a cancelled wait) would otherwise classify as transient.
var ErrCommitAmbiguous = errors.New("tc: commit outcome decided by the log, not by this error")

// ErrTCStopped is recorded against a transaction's logged operations when
// the TC is closed, its DC stub is closed, or its incarnation crashes
// before their acknowledgements arrive. The operations themselves are in
// the TC-log: recovery re-delivers or undoes them, so the error reports an
// interrupted session, not lost data. It folds into the taxonomy as a
// component-unavailable failure.
var ErrTCStopped = fmt.Errorf("tc: stopped with logged operations unacknowledged: %w", base.ErrUnavailable)

// maxShipBatch caps the operations in one shipped PerformBatch message:
// wire frames are bounded, and a huge transaction ships in chunks.
const maxShipBatch = 64

// queue adds a logged operation to the transaction's outgoing list for the
// DC the caller resolved with dcIndex before the record was appended (only
// routable operations consume logged LSNs). op.Epoch must have been
// stamped *before* the op's LSN was assigned: a crash+restart racing the
// append mints the new epoch before the reused LSN space is handed out, so
// an op whose LSN belongs to the dead incarnation's log can never carry
// the live epoch and feed its ack into the reset tracker under a reused
// LSN (nor pass the DC's fence).
func (x *Txn) queue(op *base.Op, dcIdx int) {
	if x.out == nil {
		x.out = make([][]*base.Op, len(x.tc.dcs))
	}
	x.out[dcIdx] = append(x.out[dcIdx], op)
}

// flush ships the transaction's outgoing operations from its own
// goroutine: per DC, in log order, one PerformBatch per chunk of up to
// maxShipBatch ops. Logged writes need no reply before a barrier — the X
// lock freezes the key, the pre-check (or versioned-upsert semantics)
// guarantees the outcome, and the record is in the TC-log, so the §4.2
// resend/redo contract delivers it even across failures — and the
// barriers are the points that rely on DC state: scans and unlocked reads
// (drain), Abort before undo, and Commit before releasing locks (strict
// 2PL keeps other transactions off the keys until then). An op's LSN
// completes only when acknowledged, so the low-water mark never passes an
// open transaction's writes.
//
// ctx only bounds the wait. A cancelled flush returns the ErrCancelled-
// wrapped error and keeps every unacknowledged op queued for a later
// flush to resend (DC idempotence absorbs whatever did land), so an
// abandoned op can never be overtaken by its own inverse. Other failures
// are permanent: the ops are retired and the error is sticky.
func (x *Txn) flush(ctx context.Context) error {
	if x.shipErr != nil {
		return x.shipErr
	}
	for i, ops := range x.out {
		for len(ops) > 0 {
			n := min(len(ops), maxShipBatch)
			err := x.ship(ctx, x.tc.dcs[i], ops[:n])
			if errors.Is(err, base.ErrCancelled) {
				x.out[i] = ops
				return err
			}
			if err != nil && x.shipErr == nil {
				x.shipErr = err
			}
			ops = ops[n:]
		}
		x.out[i] = x.out[i][:0]
	}
	return x.shipErr
}

// ship delivers one chunk to DC handle h and feeds the ack tracker.
// CodeUnavailable (the DC is down or restarting) triggers a paced resend
// of the whole chunk — the §4.2 resend contract; per-operation idempotence
// at the DC absorbs re-execution of operations that did land.
func (x *Txn) ship(ctx context.Context, h *dcHandle, ops []*base.Op) error {
	t := x.tc
	var err error
	backoff := 200 * time.Microsecond
	for {
		// Deliver only ops logged by the live incarnation: a chunk parked in
		// this retry loop across a TC crash+restart must not reach the DC —
		// its records vanished with the unforced log tail, so executing it
		// would apply writes no undo covers and record reused LSNs in the
		// abstract-LSN tables (poisoning the restarted TC's idempotence
		// checks). A chunk already on the wire when the crash hit is beyond
		// this check's reach; the DC-side epoch fence installed by
		// BeginRestart refuses it there (CodeStaleEpoch), closing the window
		// end to end. Both checks compare the same stamp: op.Epoch.
		if live, dead := liveOps(ops, t.Epoch()); dead {
			err, ops = ErrTCStopped, live
		}
		if len(ops) == 0 {
			return err
		}
		if werr := h.waitReady(ctx); werr != nil {
			return werr
		}
		// Singleton chunks are the service's concern: the wire stub
		// already degrades them to a plain Perform message.
		results := h.svc.PerformBatch(ctx, ops)
		t.opsSent.Add(uint64(len(ops)))
		if !slices.ContainsFunc(results, unacked) {
			return x.complete(ops, results, err)
		}
		if ctx.Err() != nil {
			return base.CancelErr(ctx)
		}
		// A closed wire client answers every call with CodeUnavailable
		// forever; retrying would wedge barriers that its Close contract
		// ("fail outstanding calls") promises to unblock. Probe for it so
		// out-of-order shutdowns (stubs closed before the TC) still
		// terminate; a plain recovering DC keeps the resend loop.
		if c, ok := h.svc.(interface{ Closed() bool }); ok && c.Closed() {
			return ErrTCStopped
		}
		select {
		case <-t.stopCh:
			return ErrTCStopped
		case <-ctx.Done():
			return base.CancelErr(ctx)
		case <-time.After(backoff):
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// liveOps returns the ops stamped with the live epoch and whether any
// were dropped; the common all-live case does not copy.
func liveOps(ops []*base.Op, epoch base.Epoch) ([]*base.Op, bool) {
	dead := func(op *base.Op) bool { return op.Epoch != epoch }
	if !slices.ContainsFunc(ops, dead) {
		return ops, false
	}
	return slices.DeleteFunc(slices.Clone(ops), dead), true
}

// unacked reports a result that does not acknowledge its op: missing,
// unavailable, or cancelled. A chunk holding one is resent.
func unacked(r *base.Result) bool {
	return r == nil || r.Code == base.CodeUnavailable || r.Code == base.CodeCancelled
}

// complete feeds the ack tracker from one acknowledged chunk and returns
// the first failure (err, if already set, comes first). Ops logged by a
// prior TC incarnation (the TC crashed while the chunk was on the wire)
// must not touch the reset ack tracker: their LSN space is being reused.
// A stale-epoch nack from the DC means the op never executed — the fence
// fired mid-flight — so its LSN must not complete either.
func (x *Txn) complete(ops []*base.Op, results []*base.Result, err error) error {
	t := x.tc
	epoch := t.Epoch()
	for i, op := range ops {
		var opErr error
		switch res := results[i]; {
		case op.Epoch != epoch:
			opErr = ErrTCStopped
		case res.Code == base.CodeStaleEpoch:
			opErr = fmt.Errorf("tc: logged op fenced at DC: %v: %w", op, base.ErrStaleEpoch)
		default:
			t.acks.Complete(op.LSN)
			if res.Code != base.CodeOK {
				// Cannot happen given the pre-check + X-lock invariant;
				// surface loudly at the barrier if it is ever broken.
				opErr = fmt.Errorf("tc: logged op failed at DC: %v -> %v", op, res.Code)
			}
		}
		if err == nil {
			err = opErr
		}
	}
	return err
}

// Commit makes the transaction durable: append and force the commit
// record (group commit), ship the transaction's writes, finalize versioned
// writes (§6.2.2 — removing the before versions; non-blocking for readers,
// no two-phase commit), then release locks (strict two-phase locking).
// Locks are released only after every shipped operation is acknowledged,
// so no other transaction can observe a not-yet-applied write. A delivery
// failure (the TC or its DC stub was closed, or the TC crashed underneath
// a committing transaction) is reported, but the commit record is already
// appended: restart decides the outcome and re-delivers a winner's logged
// operations.
//
// Cancellation abandons the waits, never the protocol: Commit returns
// promptly with an error wrapping ErrCommitAmbiguous and base.ErrCancelled
// (the commit record is already appended, so the outcome is whatever the
// log decides), but the transaction's locks are NOT released early — a
// detached finisher holds them until every operation is acknowledged and
// the commit record is stable, preserving strict 2PL: no other
// transaction can observe a not-yet-applied write or a not-yet-durable
// commit.
func (x *Txn) Commit() error {
	if x.state != txnActive {
		return ErrTxnDone
	}
	t := x.tc
	var vkeys []tableKey
	for tk := range x.versioned {
		vkeys = append(vkeys, tk)
	}
	if x.lastLSN == 0 && len(vkeys) == 0 {
		// Read-only (or no-op) commit: the transaction logged nothing, so
		// there is no outcome to make durable — no commit record, no log
		// force. Restart treats an unlogged transaction as having no
		// effects, which is exactly right.
		x.state = txnCommitted
		t.commits.Add(1)
		x.finish()
		return nil
	}
	if len(vkeys) > 0 {
		// The commit timestamp is the snapshot visibility point of this
		// transaction's versioned writes. Logged in the commit record so
		// restart re-finalizes winners at the same timestamp.
		x.commitTS = t.assignCommitTS()
	}
	rec := &wal.Record{Kind: recCommit, Txn: x.id, Prev: x.lastLSN,
		Payload: encodeCommit(vkeys, x.commitTS)}
	cLSN := t.log.AppendAssign(rec)
	t.acks.Complete(cLSN) // local record: no DC round trip
	// The force runs in a goroutine, overlapping the writes' delivery, only
	// when a cancellable ctx may need to abandon it; forced is nil when it
	// already completed inline.
	var forced chan struct{}
	if x.ctx.Done() != nil {
		forced = make(chan struct{})
		go func() {
			t.log.ForceTo(cLSN)
			close(forced)
		}()
	} else {
		t.log.ForceTo(cLSN)
	}
	err := x.flush(x.ctx)
	if forced != nil && err == nil {
		select {
		case <-forced:
		case <-x.ctx.Done():
			err = base.CancelErr(x.ctx)
		}
	}
	// Push the new stable boundary to the DCs promptly: cached pages with
	// this transaction's operations become flushable (causality).
	t.broadcastWatermarks()
	x.state = txnCommitted
	t.commits.Add(1)
	if errors.Is(err, base.ErrCancelled) {
		return x.detach(forced, vkeys, err)
	}
	if err == nil {
		// §6.2.2: "When an updating TC commits the transaction, it sends
		// updates to the DC to eliminate the before versions." These are
		// logged so restart re-delivers them for winners, and ship only
		// once the commit record is stable.
		for _, tk := range vkeys {
			x.finalizeOp(tk)
		}
		if err = x.flush(x.ctx); errors.Is(err, base.ErrCancelled) {
			return x.detach(forced, nil, err)
		}
	}
	if err != nil {
		// A permanent delivery failure retired the unacknowledged ops, so
		// locks can release now; still see the force through.
		if forced != nil {
			<-forced
		}
		x.finish()
		return fmt.Errorf("tc: commit barrier for txn %d: %w: %w", x.id, ErrCommitAmbiguous, err)
	}
	x.finish()
	return nil
}

// detach hands the rest of a cancelled commit to a background finisher so
// the caller returns promptly: ship what is still unacknowledged, wait out
// the force, send the finalize operations not yet issued (vkeys; their
// delivery can block arbitrarily on a down DC — the commit record already
// carries the versioned write set, so restart re-finalizes winners
// regardless), then release the locks. forced is non-nil: only a
// cancellable ctx can cancel.
func (x *Txn) detach(forced chan struct{}, vkeys []tableKey, err error) error {
	go func() {
		_ = x.flush(context.Background())
		<-forced
		for _, tk := range vkeys {
			x.finalizeOp(tk)
		}
		_ = x.flush(context.Background())
		x.finish()
	}()
	return fmt.Errorf("tc: commit barrier for txn %d: %w: %w", x.id, ErrCommitAmbiguous, err)
}

// finish releases the transaction's locks and drops it from the table:
// the 2PL release point. Runs exactly once per transaction — inline on
// the normal paths, from the detached finisher on a cancelled commit. It
// also releases the transaction's timestamp registrations: the snapshot
// pin on the GC horizon, and the outstanding commit timestamp (every
// path reaching finish after a commit has the finalize operations
// acknowledged, so the safe timestamp may now pass it).
func (x *Txn) finish() {
	t := x.tc
	if x.snapTS != 0 || x.commitTS != 0 {
		t.tsMu.Lock()
		if x.snapTS != 0 {
			if t.activeSnaps[x.snapTS]--; t.activeSnaps[x.snapTS] <= 0 {
				delete(t.activeSnaps, x.snapTS)
			}
		}
		if x.commitTS != 0 {
			delete(t.commitOut, x.commitTS)
		}
		t.tsMu.Unlock()
	}
	t.locks.ReleaseAll(x.id)
	t.mu.Lock()
	delete(t.txns, x.id)
	t.mu.Unlock()
}

// finalizeOp logs and queues the §6.2.2 commit-versions operation for one
// versioned key.
func (x *Txn) finalizeOp(tk tableKey) {
	t := x.tc
	// The forward write resolved this key's placement when it was issued,
	// so under a stable placement this cannot fail; resolving before the
	// record is appended keeps the invariant that only routable
	// operations ever consume a logged LSN.
	idx, err := t.dcIndex(tk.table, tk.key)
	if err != nil {
		return
	}
	// Commit-versions operations carry the commit timestamp: the DC stamps
	// it on the record as it removes the before version, making the write
	// visible to snapshot reads at or above it. The payload keeps the TS
	// (only LSN and epoch are zeroed), so restart redo re-finalizes at the
	// same timestamp.
	op := &base.Op{TC: t.cfg.ID, Kind: base.OpCommitVersions, Table: tk.table, Key: tk.key, TS: x.commitTS}
	rec := &wal.Record{Kind: recOp, Txn: x.id, Prev: 0,
		Payload: encodeOpPayload(op, nil, false)}
	op.Epoch = t.Epoch() // before the LSN assignment; see queue
	op.LSN = t.log.AppendAssign(rec)
	x.queue(op, idx)
}

// Abort rolls the transaction back: walk the undo chain in reverse
// chronological order, sending inverse logical operations (logged as
// compensation records so restart never undoes twice), then release locks
// (§4.1.1(2b)). The transaction's unshipped writes are flushed first so
// every inverse finds its forward operation applied and can never overtake
// it. Abort does not honor cancellation: the rollback protocol must
// complete before the locks can be released (a cancelled transaction
// still aborts cleanly).
func (x *Txn) Abort() error {
	if x.state != txnActive {
		if x.state == txnAborted {
			return nil
		}
		return ErrTxnDone
	}
	t := x.tc
	_ = x.flush(context.Background()) // delivery failures still leave the log authoritative
	t.undoChain(x.id, x.lastLSN)
	aLSN := t.log.AppendAssign(&wal.Record{Kind: recAbort, Txn: x.id, Prev: x.lastLSN})
	t.acks.Complete(aLSN) // local record: no DC round trip
	x.state = txnAborted
	x.finish()
	t.aborts.Add(1)
	return nil
}

// undoChain applies inverse operations for the chain starting at lastLSN.
// Compensation records jump via NextUndo so an undo interrupted by a crash
// never repeats completed work. Shared by Abort and restart undo.
func (t *TC) undoChain(txn base.TxnID, lastLSN base.LSN) {
	cur := lastLSN
	for cur != 0 {
		rec := t.log.Get(cur)
		if rec == nil {
			return // truncated below the chain: nothing older to undo
		}
		switch rec.Kind {
		case recOp:
			op, prior, priorFound, err := decodeOpPayload(rec.Payload)
			if err != nil {
				return
			}
			if inv := inverseOp(op, prior, priorFound); inv != nil {
				// The forward op routed when it was logged; a failure here
				// means the placement changed underneath a live log, which
				// nothing can undo against — stop like a truncated chain.
				idx, err := t.dcIndex(inv.Table, inv.Key)
				if err != nil {
					return
				}
				clr := &wal.Record{Kind: recCLR, Txn: txn, Prev: cur,
					NextUndo: rec.Prev, Payload: encodeOpPayload(inv, nil, false)}
				inv.Epoch = t.Epoch() // before the LSN assignment; see queue
				inv.LSN = t.log.AppendAssign(clr)
				t.performOn(context.Background(), t.dcs[idx], inv)
				t.undoOps.Add(1)
			}
			cur = rec.Prev
		case recCLR:
			cur = rec.NextUndo
		default:
			cur = rec.Prev
		}
	}
}

// inverseOp builds the logical inverse (§4.1.1(2b)). Versioned writes
// invert via abort-versions — the DC discards the uncommitted version and
// restores the before version (§6.2.2). Finalize operations have no
// inverse (they only run post-commit).
func inverseOp(op *base.Op, prior []byte, priorFound bool) *base.Op {
	if op.Kind == base.OpCommitVersions || op.Kind == base.OpAbortVersions {
		return nil
	}
	if op.Versioned {
		return &base.Op{TC: op.TC, Kind: base.OpAbortVersions, Table: op.Table, Key: op.Key}
	}
	switch op.Kind {
	case base.OpInsert:
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpUpdate:
		return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
	case base.OpUpsert:
		if priorFound {
			return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
		}
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpDelete:
		return &base.Op{TC: op.TC, Kind: base.OpInsert, Table: op.Table, Key: op.Key, Value: prior}
	}
	return nil
}

// Scan reads [lo, hi) in this TC's partition with full locking, using the
// configured §3.1 range protocol. hi == "" scans to the end of the table's
// partition; limit <= 0 means unlimited.
func (x *Txn) Scan(table, lo, hi string, limit int) (keys []string, vals [][]byte, err error) {
	if x.state != txnActive {
		return nil, nil, ErrTxnDone
	}
	if x.snapTS != 0 {
		// Snapshot scans need none of the §3.1 range protocols: the view
		// at the snapshot timestamp is immutable, so one unlocked range
		// read is already stable.
		res, err := x.snapshotOp(&base.Op{TC: x.tc.cfg.ID, Kind: base.OpRangeRead,
			Table: table, Key: lo, EndKey: hi, Limit: int32(limit),
			Flavor: base.ReadSnapshot, TS: x.snapTS})
		if err != nil {
			return nil, nil, fmt.Errorf("tc: snapshot scan %s: %w", table, err)
		}
		if err := x.resErr(res); err != nil {
			return nil, nil, err
		}
		return res.Keys, res.Values, nil
	}
	if err := x.drain(); err != nil {
		return nil, nil, err
	}
	if x.tc.cfg.Protocol == StaticRange {
		for _, b := range x.tc.Partition(table).Overlapping(lo, hi) {
			if err := x.lock(lockmgr.RangeRes(table, b), lockmgr.S); err != nil {
				return nil, nil, err
			}
		}
		res, err := x.rangeOp(table, lo, hi, limit, base.ReadPlain)
		if err != nil {
			return nil, nil, err
		}
		if err := x.resErr(res); err != nil {
			return nil, nil, err
		}
		return res.Keys, res.Values, nil
	}
	return x.fetchAheadScan(table, lo, hi, limit)
}

// fetchAheadScan implements the §3.1 fetch-ahead protocol: speculatively
// probe for the keys in the range, lock them, then read; if the read
// returns keys that were not locked, the read doubles as the next probe.
func (x *Txn) fetchAheadScan(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	locked := make(map[string]bool)
	probeLimit := int32(limit)
	if limit <= 0 || limit > x.tc.cfg.ProbeWidth {
		probeLimit = int32(x.tc.cfg.ProbeWidth)
	}
	// Initial speculative probe. Range reads route by their low key: the
	// range protocols scan within one table partition.
	idx, err := x.tc.dcIndex(table, lo)
	if err != nil {
		_ = x.Abort()
		return nil, nil, err
	}
	x.tc.probes.Add(1)
	probe := x.tc.performOn(x.ctx, x.tc.dcs[idx], &base.Op{TC: x.tc.cfg.ID, LSN: x.tc.log.AllocLSN(),
		Kind: base.OpScanProbe, Table: table, Key: lo, EndKey: hi, Limit: probeLimit})
	if err := x.resErr(probe); err != nil {
		return nil, nil, err
	}
	toLock := probe.Keys
	for attempt := 0; attempt < 16; attempt++ {
		for _, k := range toLock {
			if locked[k] {
				continue
			}
			if err := x.lock(lockmgr.KeyRes(table, k), lockmgr.S); err != nil {
				return nil, nil, err
			}
			locked[k] = true
		}
		res, err := x.rangeOp(table, lo, hi, limit, base.ReadPlain)
		if err != nil {
			return nil, nil, err
		}
		if err := x.resErr(res); err != nil {
			return nil, nil, err
		}
		// Should the records read differ from the ones locked, this read
		// becomes the next speculative probe (§3.1).
		stable := true
		for _, k := range res.Keys {
			if !locked[k] {
				stable = false
				break
			}
		}
		if stable {
			return res.Keys, res.Values, nil
		}
		toLock = res.Keys
		x.tc.probes.Add(1)
	}
	_ = x.Abort()
	return nil, nil, ErrScanUnstable
}

// ScanCommitted range-reads committed versions across TC ownership
// boundaries without locks (§6.2.2; used by reader TCs like Figure 2's
// TC3).
func (x *Txn) ScanCommitted(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	if x.state != txnActive {
		return nil, nil, ErrTxnDone
	}
	if err := x.drain(); err != nil {
		return nil, nil, err
	}
	res, err := x.rangeOp(table, lo, hi, limit, base.ReadCommitted)
	if err != nil {
		return nil, nil, err
	}
	if err := x.resErr(res); err != nil {
		return nil, nil, err
	}
	return res.Keys, res.Values, nil
}

// ScanDirty range-reads latest versions without locks (§6.2.1).
func (x *Txn) ScanDirty(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	if x.state != txnActive {
		return nil, nil, ErrTxnDone
	}
	if err := x.drain(); err != nil {
		return nil, nil, err
	}
	res, err := x.rangeOp(table, lo, hi, limit, base.ReadDirty)
	if err != nil {
		return nil, nil, err
	}
	if err := x.resErr(res); err != nil {
		return nil, nil, err
	}
	return res.Keys, res.Values, nil
}

// resErr converts an operation result's failure into the transaction's
// error, folding a cancelled wait into the context-carrying form so
// errors.Is matches both ErrCancelled and the context's own error (the
// documented contract; readOp does the same for point reads).
func (x *Txn) resErr(res *base.Result) error {
	if res.Code == base.CodeCancelled {
		return base.CancelErr(x.ctx)
	}
	return res.Err()
}

// rangeOp issues one range read, routed by the low key (scans stay within
// one table partition); an unroutable table aborts like readOp.
func (x *Txn) rangeOp(table, lo, hi string, limit int, flavor base.ReadFlavor) (*base.Result, error) {
	idx, err := x.tc.dcIndex(table, lo)
	if err != nil {
		_ = x.Abort()
		return nil, err
	}
	return x.tc.performOn(x.ctx, x.tc.dcs[idx], &base.Op{TC: x.tc.cfg.ID, LSN: x.tc.log.AllocLSN(),
		Kind: base.OpRangeRead, Table: table, Key: lo, EndKey: hi,
		Limit: int32(limit), Flavor: flavor}), nil
}
