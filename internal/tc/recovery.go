package tc

import (
	"context"
	"errors"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/wal"
)

// errLockTableLost is recorded against lock waits orphaned by a TC
// crash: the lock table the waiter was queued in vanished with the
// incarnation, so nothing will ever grant it. It folds into the taxonomy
// as a component-unavailable failure (transient — a retry lands on the
// recovered incarnation), and Txn.lock recognizes it specially: the
// orphaned transaction must NOT run its own rollback, because restart
// owns the undo of everything the dead incarnation logged.
var errLockTableLost = fmt.Errorf("tc: lock table lost in TC crash: %w", base.ErrUnavailable)

// Crash simulates a TC process failure: the log buffer (unforced tail),
// lock table, transaction table (with its unshipped operations), and ack
// bookkeeping vanish. The stable log survives. LSNs above the stable end
// will be reused by the restarted incarnation — the DC-side reset protocol
// (§5.3.2) makes that safe. The epoch fence activates when Recover mints
// the next incarnation; anything a zombie call completes into the tracker
// before then is wiped by recovery's re-base, and anything it delivers to
// a DC before then is swept by BeginRestart.
func (t *TC) Crash() {
	t.mu.Lock()
	t.down = true
	t.txns = make(map[base.TxnID]*Txn)
	t.mu.Unlock()
	t.log.Crash()
	// The superseded lock table is poisoned, not just dropped: waiters
	// still queued in it are blocked behind locks that no longer exist
	// and would otherwise sleep forever.
	old := t.locks
	t.locks = lockmgr.New()
	t.locks.Timeout = t.cfg.LockTimeout
	old.Poison(errLockTableLost)
	t.acks.Reset(0)
	// Outstanding commit timestamps and snapshot pins died with their
	// transactions; lastCommit and maxSafeSent deliberately survive (the
	// promises they encode were already broadcast). Recover re-seeds
	// lastCommit from the log for cross-process restarts.
	t.tsMu.Lock()
	t.commitOut = make(map[base.TS]struct{})
	t.activeSnaps = make(map[base.TS]int)
	t.tsMu.Unlock()
}

// Recover implements the TC side of the restart function (§4.2.1 restart,
// §5.3.2 "TC Failure"):
//
//  1. Analysis over the stable log: find the redo scan start point, the
//     loser transactions, and committed transactions with versioned
//     writes to re-finalize.
//  2. Tell every DC to discard effects of operations beyond the stable
//     log (targeted page reset — only this TC's records are touched).
//  3. Redo: resend every logged operation from the RSSP onward, in LSN
//     order (repeating history at the logical level; DC idempotence
//     filters what survived).
//  4. Undo: send inverse operations for losers, in reverse chronological
//     order, logged as compensation records.
//  5. Re-issue commit-versions for winners, then allow normal processing.
func (t *TC) Recover() error {
	t.mu.Lock()
	if !t.down {
		t.mu.Unlock()
		return errors.New("tc: recover called while running")
	}
	t.mu.Unlock()

	stableEnd := t.log.EOSL()
	records := t.log.Scan(0)

	// --- analysis ---
	rssp := base.LSN(1)
	type loser struct{ lastLSN base.LSN }
	type winner struct {
		keys []tableKey
		ts   base.TS
	}
	losers := make(map[base.TxnID]*loser)
	var winnersVersioned []winner
	maxTxn := uint64(0)
	maxEpoch := base.Epoch(0)
	maxCommitTS := base.TS(0)
	for _, rec := range records {
		if uint64(rec.Txn) > maxTxn {
			maxTxn = uint64(rec.Txn)
		}
		switch rec.Kind {
		case recCheckpoint:
			if r, e, err := decodeCheckpoint(rec.Payload); err == nil {
				if r > rssp {
					rssp = r
				}
				if e > maxEpoch {
					maxEpoch = e
				}
			}
		case recEpoch:
			if e, err := decodeEpoch(rec.Payload); err == nil && e > maxEpoch {
				maxEpoch = e
			}
		case recOp, recCLR:
			if rec.Txn != 0 {
				l := losers[rec.Txn]
				if l == nil {
					l = &loser{}
					losers[rec.Txn] = l
				}
				l.lastLSN = rec.LSN
			}
		case recCommit:
			delete(losers, rec.Txn)
			if keys, cts, err := decodeCommit(rec.Payload); err == nil {
				if cts > maxCommitTS {
					maxCommitTS = cts
				}
				if len(keys) > 0 {
					winnersVersioned = append(winnersVersioned, winner{keys, cts})
				}
			}
		case recAbort:
			delete(losers, rec.Txn)
		}
	}

	t.mu.Lock()
	t.rssp = rssp
	t.nextTxn = maxTxn
	t.mu.Unlock()

	// Re-seed the commit-timestamp allocator above every durable commit
	// and above the clock's current reading. The clock clamp covers safe
	// timestamps a previous process broadcast without committing anything
	// (those tracked its clock), relying on the wall clock not stepping
	// backwards across a process restart — the same assumption the System
	// clock's monotonic forcing makes within one process.
	if now, _ := t.clock.Now(); now > maxCommitTS {
		maxCommitTS = now
	}
	t.tsMu.Lock()
	if maxCommitTS > t.lastCommit {
		t.lastCommit = maxCommitTS
	}
	t.tsMu.Unlock()

	// --- mint the new incarnation epoch and force it before anything is
	// stamped with it. The stable log always names the newest prior epoch
	// (every mint is forced, and checkpoint records carry it across
	// truncation), so strict monotonicity holds across any crash pattern;
	// max-ing with the in-memory value is belt and braces.
	newEpoch := maxEpoch
	if cur := base.Epoch(t.epoch.Load()); cur > newEpoch {
		newEpoch = cur
	}
	newEpoch++
	t.epoch.Store(uint64(newEpoch))
	epochLSN := t.log.AppendAssign(&wal.Record{Kind: recEpoch, Payload: encodeEpoch(newEpoch)})
	t.log.ForceTo(epochLSN)

	// A DC that lost its cache holds this TC's low-water mark until a
	// redo stream reaches it; the redo below is a full one, so it ends
	// with EndRedo to the incarnation each DC reports now.
	tokens := make([]uint64, len(t.dcs))
	for i, h := range t.dcs {
		var err error
		if tokens[i], err = h.svc.Incarnation(context.Background()); err != nil {
			return fmt.Errorf("tc %d: dc incarnation: %w", t.cfg.ID, err)
		}
	}

	// --- DC reset (§5.3.2): drop cached effects beyond the stable log and
	// install the new epoch as the fence, so the dead incarnation's
	// requests still on the wire can never execute after this point.
	for _, h := range t.dcs {
		if err := h.svc.BeginRestart(context.Background(), t.cfg.ID, newEpoch, stableEnd); err != nil {
			return fmt.Errorf("tc %d: begin restart: %w", t.cfg.ID, err)
		}
	}

	// --- redo: repeat history by resending logical operations in order ---
	for _, rec := range records {
		if rec.LSN < rssp {
			continue
		}
		if rec.Kind != recOp && rec.Kind != recCLR {
			continue
		}
		op, _, _, err := decodeOpPayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("tc %d: redo decode @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		op.LSN = rec.LSN
		op.Epoch = newEpoch // resent by (and under the fence of) this incarnation
		idx, err := t.dcIndex(op.Table, op.Key)
		if err != nil {
			// The op routed when it was logged: a failing lookup means the
			// placement changed underneath a durable log, and redo cannot
			// repeat history against the wrong DC. Fail the restart loudly.
			return fmt.Errorf("tc %d: redo @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		h := t.dcs[idx]
		if res := h.svc.Perform(context.Background(), op); res.Code != base.CodeOK &&
			res.Code != base.CodeDuplicate && res.Code != base.CodeNotFound {
			return fmt.Errorf("tc %d: redo @%d failed: %v", t.cfg.ID, rec.LSN, res.Code)
		}
		t.redoOps.Add(1)
	}
	for i, h := range t.dcs {
		// A DC that lost its cache again during this redo refuses the
		// token as unavailable: it keeps its hold, and the RecoverDC its
		// own restart prompts lifts it, so the restart need not fail.
		err := h.svc.EndRedo(context.Background(), t.cfg.ID, newEpoch, tokens[i])
		if err != nil && !errors.Is(err, base.ErrUnavailable) {
			return fmt.Errorf("tc %d: end redo: %w", t.cfg.ID, err)
		}
	}

	// Redo is complete: every allocated LSN at or below the stable end is
	// accounted for (replayed or void), so the low-water mark restarts
	// there; the DCs reset their own LWM state in BeginRestart. The epoch
	// record appended above sits just past the stable end and needs no DC
	// round trip, so it completes immediately after the re-base.
	t.acks.Reset(stableEnd)
	t.acks.Complete(epochLSN)
	// A drain does not survive the incarnation: the flag is in-memory
	// state, so a kill -9'd draining process restarts serving — recovery
	// behaves identically whether or not a drain was in progress.
	t.draining.Store(false)
	t.mu.Lock()
	t.down = false
	t.mu.Unlock()

	// --- undo losers with inverse operations (multi-level undo) ---
	for txnID, l := range losers {
		t.undoChain(txnID, l.lastLSN)
		aLSN := t.log.AppendAssign(&wal.Record{Kind: recAbort, Txn: txnID, Prev: l.lastLSN})
		t.acks.Complete(aLSN) // local record: no DC round trip
	}

	// --- re-finalize winners' versioned writes (§6.2.2: before versions
	// are guaranteed to be eventually removed) ---
	for _, w := range winnersVersioned {
		for _, tk := range w.keys {
			idx, err := t.dcIndex(tk.table, tk.key)
			if err != nil {
				return fmt.Errorf("tc %d: re-finalize %s/%q: %w", t.cfg.ID, tk.table, tk.key, err)
			}
			op := &base.Op{TC: t.cfg.ID, Kind: base.OpCommitVersions,
				Table: tk.table, Key: tk.key, TS: w.ts}
			rec := &wal.Record{Kind: recOp, Payload: encodeOpPayload(op, nil, false)}
			op.Epoch = newEpoch
			op.LSN = t.log.AppendAssign(rec)
			t.performOn(context.Background(), t.dcs[idx], op)
		}
	}
	t.log.Force()
	t.broadcastWatermarks()

	// --- contract: restart complete, normal processing resumes — the DCs
	// activate the staged epoch and discard the dead incarnation's leftovers.
	for _, h := range t.dcs {
		if err := h.svc.EndRestart(context.Background(), t.cfg.ID, newEpoch); err != nil {
			return fmt.Errorf("tc %d: end restart: %w", t.cfg.ID, err)
		}
	}
	return nil
}

// RecoverDC replays this TC's logged operations to one crashed-and-
// recovered DC (§5.3.2 "DC Failure"): resend from the redo scan start
// point; the DC re-applies whatever is missing from its stable state.
// New operations to that DC wait until the redo stream completes so that
// logical operations are never applied out of order; in-flight resends of
// old operations are part of the redo stream and harmless. The stream is
// bracketed by Incarnation and EndRedo: the DC holds this TC's low-water
// mark until the redo has reached the incarnation it reported, and a DC
// that crashed again meanwhile refuses the EndRedo, failing RecoverDC so
// the caller replays once more.
func (t *TC) RecoverDC(idx int) error {
	if idx < 0 || idx >= len(t.dcs) {
		return fmt.Errorf("tc %d: no DC %d", t.cfg.ID, idx)
	}
	h := t.dcs[idx]
	h.setRecovering(true)
	defer h.setRecovering(false)
	token, err := h.svc.Incarnation(context.Background())
	if err != nil {
		return fmt.Errorf("tc %d: dc-redo incarnation: %w", t.cfg.ID, err)
	}

	// Scan only sees the stable log, but operations whose replies already
	// arrived may still sit in the unforced tail (a scan or unlocked read
	// ships an open transaction's writes before any force).
	// Force first so the redo stream covers every operation the DC might
	// have lost from its cache.
	t.log.Force()
	t.mu.Lock()
	rssp := t.rssp
	t.mu.Unlock()
	for _, rec := range t.log.Scan(rssp) {
		if rec.Kind != recOp && rec.Kind != recCLR {
			continue
		}
		op, _, _, err := decodeOpPayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("tc %d: dc-redo decode @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		opIdx, err := t.dcIndex(op.Table, op.Key)
		if err != nil {
			return fmt.Errorf("tc %d: dc-redo @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		if opIdx != idx {
			continue
		}
		op.LSN = rec.LSN
		op.Epoch = t.Epoch()
		if res := h.svc.Perform(context.Background(), op); res.Code != base.CodeOK &&
			res.Code != base.CodeDuplicate && res.Code != base.CodeNotFound {
			return fmt.Errorf("tc %d: dc-redo @%d failed: %v", t.cfg.ID, rec.LSN, res.Code)
		}
		t.redoOps.Add(1)
	}
	if err := h.svc.EndRedo(context.Background(), t.cfg.ID, t.Epoch(), token); err != nil {
		return fmt.Errorf("tc %d: dc-redo end: %w", t.cfg.ID, err)
	}
	t.broadcastWatermarks()
	return nil
}
