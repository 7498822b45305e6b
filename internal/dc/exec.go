package dc

import (
	"bytes"
	"context"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/page"
)

// Perform implements base.Service: execute one logical operation exactly
// once. The DC does not know which user transaction the operation belongs
// to, nor whether it is forward activity or an inverse applied during
// rollback (§4.2.1). A context that is already done is refused up front
// (CodeCancelled); an operation that starts executing completes.
func (d *DC) Perform(ctx context.Context, op *base.Op) *base.Result {
	if ctx.Err() != nil {
		return &base.Result{LSN: op.LSN, Code: base.CodeCancelled}
	}
	if !d.running() {
		d.unavailable.Add(1)
		return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	// Incarnation fence: an operation stamped by an epoch older than the
	// TC's last begin_restart was issued by a dead incarnation. It must
	// never execute — its log record died with the unforced tail, and its
	// LSN is being reused — so the nack is permanent (no resend).
	ts := d.tcState(op.TC)
	if ts.fenced(op.Epoch) {
		d.staleEpochs.Add(1)
		return &base.Result{LSN: op.LSN, Code: base.CodeStaleEpoch}
	}
	if d.draining.Load() {
		// Operations-plane admission gate (see Drain in admin.go): nack
		// transient, the TC's resend discipline waits the drain out.
		d.drainRejects.Add(1)
		return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	d.performs.Add(1)
	d.inflightOps.Add(1)
	defer d.inflightOps.Add(-1)
	if d.inflight != nil {
		if n := d.inflight.enter(op); n > 0 {
			d.conVios.Add(uint64(n))
		}
		defer d.inflight.exit(op)
	}
	tree := d.Tree(op.Table)
	if tree == nil {
		return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
	}
	if op.Flavor == base.ReadSnapshot && op.TS != 0 &&
		(op.Kind == base.OpRead || op.Kind == base.OpRangeRead) {
		// Snapshot read at T: wait until every TC's safe timestamp covers T
		// — all commits <= T are finalized here and no new commit can land
		// under T — then read timestamp-consistent versions lock-free.
		if code := d.waitSnapshotSafe(ctx, op.TS); code != base.CodeOK {
			if code == base.CodeUnavailable {
				d.unavailable.Add(1)
			}
			return &base.Result{LSN: op.LSN, Code: code}
		}
		d.snapReads.Add(1)
	}
	switch op.Kind {
	case base.OpRead:
		return d.read(tree, op)
	case base.OpScanProbe:
		return d.scanProbe(tree, op)
	case base.OpRangeRead:
		return d.rangeRead(tree, op)
	case base.OpInsert, base.OpUpdate, base.OpDelete, base.OpUpsert,
		base.OpCommitVersions, base.OpAbortVersions:
		pool := d.poolNow()
		if pool == nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
		}
		res := d.write(pool, tree, ts, op)
		if res.Code == base.CodeOK &&
			(op.Kind == base.OpCommitVersions || op.Kind == base.OpAbortVersions) {
			d.finalizes.Add(1)
		}
		return res
	default:
		return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
	}
}

// PerformBatch implements base.Service: execute a batch of operations
// sequentially in arrival order. Sequential execution is what makes the
// batched shipping protocol sound: two operations of one transaction on
// the same key arrive in one ordered stream per DC, so the DC never
// reorders them (the cross-transaction case is excluded by the TC's
// locks). Idempotence stays per-operation — a resent batch re-runs each
// operation through the abstract-LSN test individually.
func (d *DC) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	d.batches.Add(1)
	d.batchOps.Add(uint64(len(ops)))
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = d.Perform(ctx, op)
	}
	return out
}

// read executes a point read. Reads do not mutate state and are not
// tracked in abstract LSNs; resends simply re-execute.
func (d *DC) read(tree *btree.Tree, op *base.Op) *base.Result {
	res := &base.Result{LSN: op.LSN, Code: base.CodeOK}
	err := tree.View(op.Key, func(leaf *page.Page) {
		if rec := leaf.Get(op.Key); rec != nil {
			if v, ok := recVersion(rec, op); ok {
				res.Found = true
				res.Value = append([]byte(nil), v...)
			}
		}
	})
	if err != nil {
		return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
	}
	if !res.Found {
		res.Code = base.CodeNotFound
	}
	return res
}

// scanProbe is the speculative probe of the fetch-ahead protocol (§3.1):
// return the keys of the next records at or after op.Key so the TC can
// lock them before issuing the real read.
func (d *DC) scanProbe(tree *btree.Tree, op *base.Op) *base.Result {
	res := &base.Result{LSN: op.LSN, Code: base.CodeOK}
	limit := int(op.Limit)
	if limit <= 0 {
		limit = 16
	}
	err := tree.Scan(op.Key, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(op.Key, op.EndKey, func(r *page.Record) bool {
			res.Keys = append(res.Keys, r.Key)
			return len(res.Keys) < limit
		})
		return !stopped
	})
	if err != nil {
		return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
	}
	return res
}

// rangeRead returns visible records with op.Key <= k < op.EndKey.
func (d *DC) rangeRead(tree *btree.Tree, op *base.Op) *base.Result {
	res := &base.Result{LSN: op.LSN, Code: base.CodeOK}
	limit := int(op.Limit)
	if limit <= 0 {
		limit = 1 << 30
	}
	err := tree.Scan(op.Key, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(op.Key, op.EndKey, func(r *page.Record) bool {
			if v, ok := recVersion(r, op); ok {
				res.Keys = append(res.Keys, r.Key)
				res.Values = append(res.Values, append([]byte(nil), v...))
			}
			return len(res.Keys) < limit
		})
		return !stopped
	})
	if err != nil {
		return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
	}
	return res
}

// recVersion resolves the version of rec visible to op: timestamped
// resolution for snapshot reads, flavor resolution otherwise.
func recVersion(rec *page.Record, op *base.Op) ([]byte, bool) {
	if op.Flavor == base.ReadSnapshot && op.TS != 0 {
		return rec.VersionAt(op.TS)
	}
	return rec.ReadVersion(op.Flavor)
}

// write executes a mutating operation with the abstract-LSN idempotence
// test of §5.1.2: if the page already contains the operation's effects the
// DC skips re-execution and acknowledges.
func (d *DC) write(pool *buffer.Pool, tree *btree.Tree, ts *tcState, op *base.Op) *base.Result {
	for {
		var res *base.Result
		leafID, blocked, err := tree.Apply(op.Key, func(leaf *page.Page) bool {
			// Re-test the incarnation fence under the leaf latch: the
			// restart sweep latches every page, so a write serializes with
			// it — applied before the sweep it is stripped by the reset,
			// latched after it is fenced here. The entry check alone would
			// leave a window where an old-epoch write lands on an
			// already-swept page.
			if ts.fenced(op.Epoch) {
				d.staleEpochs.Add(1)
				res = &base.Result{LSN: op.LSN, Code: base.CodeStaleEpoch}
				return false
			}
			if leaf.Ab.Contains(op.TC, op.LSN) {
				d.dupSkips.Add(1)
				res = &base.Result{LSN: op.LSN, Code: base.CodeOK, Applied: true}
				return false
			}
			if pool.BarrierBlocked(leaf, op.TC, op.LSN) {
				return true // §5.1.2 strategy 1: wait out the page sync
			}
			res = applyWrite(leaf, op, base.TS(d.gcHorizon.Load()))
			if res.Code == base.CodeOK {
				// Prune before adding, with the bound flushes use, so
				// {LSNin} holds only writes the TC has not yet heard back
				// about rather than every write since the last flush.
				a := leaf.Ab.Ensure(op.TC)
				a.Advance(ts.pruneBound())
				a.Add(op.LSN)
				pool.MarkDirty(leaf, op.TC, op.LSN, 0)
			}
			return false
		})
		if err != nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
		}
		if blocked {
			pool.BarrierWait(leafID)
			continue
		}
		return res
	}
}

// applyWrite mutates the latched leaf according to op. Failed operations
// (duplicate insert, update/delete of a missing key) change nothing and
// are deliberately not recorded in the abstract LSN: re-execution is
// deterministic because redo repeats history in operation order.
//
// Versioned writes zero the record's commit TS (the in-flight version is
// uncommitted) and park the previous version's TS in BeforeTS; the commit
// finalize re-stamps it. Unversioned writes clear the timestamp group —
// they do not maintain snapshot history.
func applyWrite(leaf *page.Page, op *base.Op, horizon base.TS) *base.Result {
	res := &base.Result{LSN: op.LSN, Code: base.CodeOK}
	rec := leaf.Get(op.Key)
	switch op.Kind {
	case base.OpInsert:
		if rec != nil {
			if _, visible := rec.ReadVersion(base.ReadDirty); visible {
				// Restore tolerance: re-applying an insert whose record
				// already holds this exact value (same owner) converges
				// idempotently; see DESIGN.md on partial-failure restore.
				if rec.Owner == op.TC && bytes.Equal(rec.Value, op.Value) && !rec.HasBefore() {
					return res
				}
				res.Code = base.CodeDuplicate
				return res
			}
			// Tombstoned slot: fall through and overwrite.
		}
		nr := page.Record{Key: op.Key, Owner: op.TC, Value: cloneBytes(op.Value)}
		if op.Versioned {
			// §6.2.2: "To provide an earlier version for inserts, one can
			// insert two versions, a before null version followed by the
			// intended insert."
			nr.Flags = page.FlagHasBefore | page.FlagBeforeNull
			if rec != nil && !rec.HasBefore() {
				// Re-insert over a committed, timestamped tombstone: carry
				// the deletion's TS and the retained history, so snapshots
				// below the re-insert keep resolving.
				nr.BeforeTS = rec.TS
				nr.Hist = rec.Hist
			}
		}
		leaf.Put(nr)
	case base.OpUpdate:
		if rec == nil {
			res.Code = base.CodeNotFound
			return res
		}
		if _, visible := rec.ReadVersion(base.ReadDirty); !visible {
			res.Code = base.CodeNotFound
			return res
		}
		res.Prior = cloneBytes(rec.Value)
		res.PriorKnown, res.PriorFound = true, true
		if op.Versioned {
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
			}
			rec.TS = 0
		} else {
			rec.TS, rec.BeforeTS, rec.Hist = 0, 0, nil
		}
		rec.Value = cloneBytes(op.Value)
		rec.Flags &^= page.FlagTombstone
		rec.Owner = op.TC
	case base.OpUpsert:
		if rec == nil {
			nr := page.Record{Key: op.Key, Owner: op.TC, Value: cloneBytes(op.Value)}
			if op.Versioned {
				nr.Flags = page.FlagHasBefore | page.FlagBeforeNull
			}
			leaf.Put(nr)
			res.PriorKnown = true
			return res
		}
		res.Prior = cloneBytes(rec.Value)
		res.PriorKnown = true
		_, res.PriorFound = rec.ReadVersion(base.ReadDirty)
		if op.Versioned {
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
				if rec.Tombstone() {
					// Upsert over a committed tombstone is an insert: the
					// before version is the null version at the deletion's TS.
					rec.Before = nil
					rec.Flags |= page.FlagBeforeNull
				}
			}
			rec.TS = 0
		} else {
			rec.TS, rec.BeforeTS, rec.Hist = 0, 0, nil
		}
		rec.Value = cloneBytes(op.Value)
		rec.Flags &^= page.FlagTombstone
		rec.Owner = op.TC
	case base.OpDelete:
		if rec == nil {
			res.Code = base.CodeNotFound
			return res
		}
		if _, visible := rec.ReadVersion(base.ReadDirty); !visible {
			res.Code = base.CodeNotFound
			return res
		}
		res.Prior = cloneBytes(rec.Value)
		res.PriorKnown, res.PriorFound = true, true
		if op.Versioned {
			// Versioned delete: tombstone the latest version, retain the
			// before version for read-committed readers (§6.2.2).
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
			}
			rec.Value = nil
			rec.TS = 0
			rec.Flags |= page.FlagTombstone
			rec.Owner = op.TC
		} else {
			leaf.Remove(op.Key)
		}
	case base.OpCommitVersions:
		// Finalize the versioned write (§6.2.2). With a commit TS the before
		// version moves into history for snapshot readers; without one the
		// legacy discard applies. Missing records and already finalized
		// records are no-ops: commits are resent and replayed.
		if rec != nil {
			if rec.CommitVersionAt(op.TS, horizon) {
				leaf.Remove(op.Key)
			}
		}
	case base.OpAbortVersions:
		// Remove the latest version updated by the transaction (§6.2.2).
		if rec != nil {
			if rec.AbortVersion() {
				leaf.Remove(op.Key)
			}
		}
	default:
		res.Code = base.CodeBadRequest
	}
	return res
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
