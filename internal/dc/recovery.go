package dc

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/wal"
)

// Crash simulates a DC process failure: the cache and all volatile state
// (watermarks, unforced DC-log tail) vanish; stable pages and the stable
// DC-log survive. The DC answers CodeUnavailable until Recover runs.
// Crashing a closed DC leaves it closed.
func (d *DC) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == stateClosed {
		return
	}
	d.state = stateDown
	d.pool = nil
	d.trees = make(map[string]*btree.Tree)
	d.pageTable = make(map[base.PageID]string)
	// The lost cache holds every TC's low-water mark until that TC's redo
	// reaches the next incarnation. Operations still executing with a
	// reference to a superseded tcState must not prune either.
	for _, s := range d.tcs {
		s.held.Store(true)
	}
	d.tcs = make(map[base.TCID]*tcState)
	d.lostCache = true
	d.incarnation = newIncarnation()
	// Epoch fences are rebuilt from the stable DC-log (every bump is forced
	// before it takes effect, and truncation re-snapshots).
	d.epochRec = 0
	d.dlog.Crash()
	if d.inflight != nil {
		d.inflight = newConflictTable()
	}
}

// Recover rebuilds the DC after a crash: replay the stable DC-log in dLSN
// order so the search structures are well-formed *before* any TC redo
// arrives (§4.2 "Recovery", §5.2.2), then reopen the trees from the
// catalog. The TC(s) are then prompted (by the deployment layer) to resend
// operations from their redo scan start points.
func (d *DC) Recover() error {
	d.mu.Lock()
	if d.state != stateDown {
		d.mu.Unlock()
		return fmt.Errorf("dc %s: recover called while not down", d.cfg.Name)
	}
	d.state = stateRecovering
	d.mu.Unlock()

	pool := d.newPool()
	d.mu.Lock()
	d.pool = pool
	d.mu.Unlock()

	// Replay system transactions in their (stable) log order. This can
	// execute structure modifications out of their original execution
	// order relative to TC operations — exactly the §5.2.2 situation the
	// logging formats are designed for.
	for _, raw := range d.dlog.Scan(0) {
		if err := d.redoSMO(pool, raw); err != nil {
			return err
		}
	}

	// Reopen trees from the recovered catalog.
	cat, err := pool.Fetch(catalogPageID)
	if err != nil {
		return err
	}
	if cat == nil {
		return fmt.Errorf("dc %s: catalog page lost", d.cfg.Name)
	}
	trees := make(map[string]*btree.Tree)
	cat.L.RLock()
	for i := range cat.Recs {
		table := cat.Recs[i].Key
		root, n := binary.Uvarint(cat.Recs[i].Value)
		if n <= 0 {
			cat.L.RUnlock()
			pool.Unpin(catalogPageID)
			return fmt.Errorf("dc %s: corrupt catalog entry %q", d.cfg.Name, table)
		}
		trees[table] = d.newTree(table, base.PageID(root), pool)
	}
	cat.L.RUnlock()
	pool.Unpin(catalogPageID)

	// Rebuild the page -> table map by walking each tree.
	pageTable := make(map[base.PageID]string)
	for table, t := range trees {
		if err := d.walkPages(pool, t.Root(), table, pageTable); err != nil {
			return err
		}
	}

	d.mu.Lock()
	d.trees = trees
	d.pageTable = pageTable
	d.state = stateRunning
	d.mu.Unlock()
	return nil
}

func (d *DC) walkPages(pool *buffer.Pool, id base.PageID, table string, out map[base.PageID]string) error {
	pg, err := pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("dc %s: table %s references missing page %d", d.cfg.Name, table, id)
	}
	out[id] = table
	if !pg.Leaf {
		children := append([]base.PageID(nil), pg.Children...)
		pool.Unpin(id)
		for _, c := range children {
			if err := d.walkPages(pool, c, table, out); err != nil {
				return err
			}
		}
		return nil
	}
	pool.Unpin(id)
	return nil
}

// redoSMO replays one DC-log record using the page dLSN tests of §5.2.2.
func (d *DC) redoSMO(pool *buffer.Pool, rec *wal.Record) error {
	dlsn := base.DLSN(rec.LSN)
	switch rec.Kind {
	case dclog.KindCreateTree:
		ct, err := dclog.DecodeCreateTree(rec.Payload)
		if err != nil {
			return err
		}
		if err := d.redoInstallImage(pool, ct.RootID, ct.RootImage, dlsn); err != nil {
			return err
		}
		d.redoCatalogPut(pool, ct.Table, ct.RootID, dlsn)
	case dclog.KindSplit:
		sp, err := dclog.DecodeSplit(rec.Payload)
		if err != nil {
			return err
		}
		return d.redoSplit(pool, sp, dlsn)
	case dclog.KindConsolidate:
		co, err := dclog.DecodeConsolidate(rec.Payload)
		if err != nil {
			return err
		}
		return d.redoConsolidate(pool, co, dlsn)
	case dclog.KindRootCollapse:
		rc, err := dclog.DecodeRootCollapse(rec.Payload)
		if err != nil {
			return err
		}
		d.redoCatalogPut(pool, rc.Table, rc.NewRootID, dlsn)
		pool.Drop(rc.OldRootID, true)
	case dclog.KindEpochs:
		eps, err := dclog.DecodeEpochs(rec.Payload)
		if err != nil {
			return err
		}
		// Reinstall the incarnation fences before any operation is served:
		// requests of pre-restart TC incarnations stay fenced across DC
		// crashes. Max semantics make replay of multiple snapshots
		// idempotent. No restart is in progress after a DC recover — if one
		// was, the TC's (resent) BeginRestart/EndRestart re-establishes it.
		for _, e := range eps.Epochs {
			s := d.tcState(e.TC)
			for {
				cur := s.epoch.Load()
				if uint64(e.Epoch) <= cur || s.epoch.CompareAndSwap(cur, uint64(e.Epoch)) {
					break
				}
			}
		}
		d.mu.Lock()
		if dlsn > d.epochRec {
			d.epochRec = dlsn
		}
		d.mu.Unlock()
	default:
		return fmt.Errorf("dc %s: unknown DC-log kind %d", d.cfg.Name, rec.Kind)
	}
	return nil
}

// redoInstallImage (re)creates a page from a logged physical image unless
// the stable version already reflects this or a later system transaction.
func (d *DC) redoInstallImage(pool *buffer.Pool, id base.PageID, image []byte, dlsn base.DLSN) error {
	existing, err := pool.Fetch(id)
	if err != nil {
		return err
	}
	if existing != nil {
		skip := existing.DLSN >= dlsn
		if skip {
			pool.Unpin(id)
			return nil
		}
		pool.Unpin(id)
	}
	pg, err := page.Decode(image)
	if err != nil {
		return err
	}
	pg.DLSN = dlsn
	pool.MarkDirty(pg, 0, 0, dlsn)
	pool.Install(pg)
	pool.Unpin(id)
	return nil
}

// redoCatalogPut applies a root-pointer update. Catalog updates are
// replayed unconditionally in dLSN order (they commute per table and the
// last write wins), because two trees' system transactions may stamp the
// shared catalog page out of dLSN order during normal execution.
func (d *DC) redoCatalogPut(pool *buffer.Pool, table string, root base.PageID, dlsn base.DLSN) {
	d.updateCatalog(pool, table, root, dlsn)
}

func (d *DC) redoSplit(pool *buffer.Pool, sp *dclog.Split, dlsn base.DLSN) error {
	// New (right) page: the log record captured its contents, including
	// its abstract LSN at the time of the split (§5.2.2(1)).
	if err := d.redoInstallImage(pool, sp.RightID, sp.RightImage, dlsn); err != nil {
		return err
	}
	// Pre-split (left) page: only the split key was logged; whatever
	// version is on stable storage, its abstract LSN remains valid
	// (§5.2.2(2)).
	left, err := pool.Fetch(sp.LeftID)
	if err != nil {
		return err
	}
	if left == nil {
		return fmt.Errorf("dc %s: split redo lost left page %d", d.cfg.Name, sp.LeftID)
	}
	left.L.Lock()
	if left.DLSN < dlsn {
		pruneForSplit(left, sp.SplitKey)
		if left.Leaf {
			left.Next = sp.RightID
		}
		left.DLSN = dlsn
		pool.MarkDirty(left, 0, 0, dlsn)
	}
	left.L.Unlock()
	pool.Unpin(sp.LeftID)

	if sp.ParentID != 0 {
		parent, err := pool.Fetch(sp.ParentID)
		if err != nil {
			return err
		}
		if parent == nil {
			return fmt.Errorf("dc %s: split redo lost parent page %d", d.cfg.Name, sp.ParentID)
		}
		parent.L.Lock()
		if parent.DLSN < dlsn {
			if ci := parent.ChildIndex(sp.LeftID); ci >= 0 && parent.ChildIndex(sp.RightID) < 0 {
				parent.InsertSep(ci, sp.SplitKey, sp.RightID)
			}
			parent.DLSN = dlsn
			pool.MarkDirty(parent, 0, 0, dlsn)
		}
		parent.L.Unlock()
		pool.Unpin(sp.ParentID)
		return nil
	}
	// Root split: fresh branch root [SplitKey; Left, Right].
	if sp.NewRootID != 0 {
		existing, err := pool.Fetch(sp.NewRootID)
		if err != nil {
			return err
		}
		if existing == nil || existing.DLSN < dlsn {
			if existing != nil {
				pool.Unpin(sp.NewRootID)
			}
			root := page.NewBranch(sp.NewRootID, []string{sp.SplitKey},
				[]base.PageID{sp.LeftID, sp.RightID})
			root.DLSN = dlsn
			pool.MarkDirty(root, 0, 0, dlsn)
			pool.Install(root)
			pool.Unpin(sp.NewRootID)
		} else {
			pool.Unpin(sp.NewRootID)
		}
		d.redoCatalogPut(pool, sp.Table, sp.NewRootID, dlsn)
	}
	return nil
}

// pruneForSplit removes the upper half that moved to the right page.
func pruneForSplit(pg *page.Page, splitKey string) {
	if pg.Leaf {
		i := sort.Search(len(pg.Recs), func(i int) bool { return pg.Recs[i].Key >= splitKey })
		pg.Recs = pg.Recs[:i:i]
		return
	}
	i := sort.Search(len(pg.Keys), func(i int) bool { return pg.Keys[i] >= splitKey })
	pg.Keys = pg.Keys[:i:i]
	pg.Children = pg.Children[: i+1 : i+1]
}

func (d *DC) redoConsolidate(pool *buffer.Pool, co *dclog.Consolidate, dlsn base.DLSN) error {
	// The consolidated page was logged physically with abLSN = max of the
	// two inputs (§5.2.2): installing the image repeats history for the
	// page delete regardless of TC-operation interleavings.
	left, err := pool.Fetch(co.LeftID)
	if err != nil {
		return err
	}
	if left == nil || left.DLSN < dlsn {
		if left != nil {
			pool.Unpin(co.LeftID)
		}
		if err := d.redoInstallImage(pool, co.LeftID, co.LeftImage, dlsn); err != nil {
			return err
		}
	} else {
		pool.Unpin(co.LeftID)
	}
	pool.Drop(co.RightID, true)
	if co.ParentID != 0 {
		parent, err := pool.Fetch(co.ParentID)
		if err != nil {
			return err
		}
		if parent == nil {
			return fmt.Errorf("dc %s: consolidate redo lost parent %d", d.cfg.Name, co.ParentID)
		}
		parent.L.Lock()
		if parent.DLSN < dlsn {
			if ci := parent.ChildIndex(co.RightID); ci > 0 {
				parent.RemoveSep(ci - 1)
			}
			parent.DLSN = dlsn
			pool.MarkDirty(parent, 0, 0, dlsn)
		}
		parent.L.Unlock()
		pool.Unpin(co.ParentID)
	}
	return nil
}

// BeginRestart implements base.Service for TC failure (§5.3.2, §6.1.2):
// the failed TC lost its log tail beyond stableLSN, so the DC must discard
// from its cache every effect of that TC's operations with higher LSNs
// (causality guarantees none reached stable storage). Only the failed TC's
// records are touched: they are replaced from the disk versions of the
// affected pages; other TCs' records survive untouched.
//
// Before anything else the restarting incarnation's epoch is installed as
// the TC's fence and forced into the DC-log: from that moment every
// request stamped by the dead incarnation is refused, and the in-latch
// re-check in write serializes the fence with this sweep — an old-epoch
// operation either lands before the sweep (and is stripped by it) or is
// fenced. Together they close the window the TC-side generation check
// cannot: a batch already on the wire when the TC died.
func (d *DC) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	pool := d.runningPool()
	if pool == nil {
		return d.errUnavailable()
	}
	s := d.tcState(tc)
	// The whole restart — fence install, durable record, re-base, sweep,
	// restores — is one ctl critical section: a duplicated delivery must
	// not reply (unblocking the TC's redo) while the winning delivery is
	// still sweeping, and a reordered older-epoch delivery must not regress
	// a fence a newer incarnation already installed.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	cur := base.Epoch(s.epoch.Load())
	if epoch < cur {
		return fmt.Errorf("dc %s: begin-restart for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	if epoch == cur && epoch != 0 {
		// Duplicate delivery of an already-processed begin_restart (the
		// wire resends and duplicates): the reset ran once; running it
		// again after redo/undo started would strip post-restart effects.
		return nil
	}
	s.epoch.Store(uint64(epoch))
	s.restarting.Store(true)
	// Persist the fence before touching any state: once effects are swept,
	// no crash may resurrect the DC without it.
	d.logEpochs()
	// The restarted TC reuses the LSN space above stableLSN: stale
	// low-water-mark claims must not prune abstract LSNs into it. (Claims
	// still in flight from the dead incarnation are epoch-fenced, and the
	// fence raise and this re-base are atomic under ctl.)
	s.lwm.Store(0)

	type restore struct {
		table string
		rec   page.Record
	}
	var restores []restore
	pool.Pages(func(pg *page.Page) {
		pg.L.Lock()
		defer pg.L.Unlock()
		if !pg.Leaf {
			return
		}
		a := pg.Ab.Get(tc)
		if a == nil || a.MaxApplied() <= stableLSN {
			return
		}
		d.resetPages.Add(1)
		table := d.tableOf(pg.ID)
		// Strip the failed TC's records from the cached page.
		kept := pg.Recs[:0]
		for i := range pg.Recs {
			if pg.Recs[i].Owner != tc {
				kept = append(kept, pg.Recs[i])
			}
		}
		pg.Recs = kept
		// The page is dirty from here on; MarkDirty (no operation, no SMO)
		// also re-measures its cache charge, which the strip shrank.
		defer pool.MarkDirty(pg, 0, 0, 0)
		// Revert the TC's abstract LSN (and record set) to the stable
		// version of this page, if any.
		data, ok := d.store.Read(pg.ID)
		if !ok {
			pg.Ab.Drop(tc)
			return
		}
		diskPg, err := page.Decode(data)
		if err != nil {
			pg.Ab.Drop(tc)
			return
		}
		pg.Ab.Set(tc, diskPg.Ab.Get(tc))
		for i := range diskPg.Recs {
			if diskPg.Recs[i].Owner == tc {
				restores = append(restores, restore{table: table, rec: diskPg.Recs[i]})
			}
		}
	})

	// Reinsert the stable records through current routing: intervening
	// structure modifications may have moved a key's home page.
	for _, r := range restores {
		tree := d.Tree(r.table)
		if tree == nil {
			continue
		}
		rec := r.rec
		_, _, err := tree.Apply(rec.Key, func(leaf *page.Page) bool {
			if leaf.Get(rec.Key) == nil {
				leaf.Put(rec)
				d.restoredRecs.Add(1)
				// FirstDirty = 1: conservatively ancient, so the next
				// checkpoint flushes this page before advancing the RSSP.
				pool.MarkDirty(leaf, tc, 1, 0)
			}
			return false
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// EndRestart implements base.Service: restart processing for tc is
// complete. The staged epoch is atomically activated — normal processing
// (checkpoints included) resumes for the new incarnation — and whatever
// the prior incarnation still has queued inside the DC is discarded: its
// conflict-table entries are purged (fenced operations parked on page
// barriers otherwise count as conflicts against the new incarnation's
// operations). A late EndRestart from a dead incarnation is refused.
func (d *DC) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	if !d.running() {
		return d.errUnavailable()
	}
	s := d.tcState(tc)
	// Validation and activation are one ctl critical section: a dead
	// incarnation's late end_restart racing a newer begin_restart must not
	// load the old fence, pass the check, and then clear the newer
	// restart's in-progress state.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	cur := base.Epoch(s.epoch.Load())
	if epoch < cur {
		return fmt.Errorf("dc %s: end-restart for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	s.restarting.Store(false)
	if d.inflight != nil {
		d.inflight.discardStale(tc, cur)
	}
	return nil
}

func (d *DC) tableOf(id base.PageID) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageTable[id]
}
