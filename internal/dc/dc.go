// Package dc implements the Data Component (§4.1.2): a server for logical,
// record-oriented operations that knows nothing about transactions. It
// organizes, searches, updates, caches, and makes durable the data in the
// database; it makes each individual operation atomic and idempotent so
// that the TC's resend discipline yields exactly-once execution (§4.2).
//
// All knowledge of pages lives here. Structure modifications are system
// transactions on the DC-log (package dclog); the abstract-LSN machinery
// (package ablsn) provides idempotence despite out-of-order operation
// arrival (§5.1); the buffer pool (package buffer) enforces the causality
// and WAL gates; and partial failures are handled by the targeted cache
// reset of §5.3.2/§6.1.2.
package dc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// catalogPageID is the well-known page holding table -> root mappings; it
// is the first page allocated when a DC is formatted.
const catalogPageID = base.PageID(1)

// Config shapes a DC instance.
type Config struct {
	// Name identifies the DC in diagnostics.
	Name string
	// PageBytes is the split threshold (default 4096).
	PageBytes int
	// CacheCapacity is the buffer-pool budget counted in PageBytes-sized
	// pages: the pool evicts once its pages, each charged its encoded size
	// (at most one page), exceed CacheCapacity×PageBytes bytes. Near-empty
	// pages therefore cost less than full ones (default 1024 pages).
	CacheCapacity int
	// Strategy is the §5.1.2 page-sync strategy (default SyncFull).
	Strategy buffer.SyncStrategy
	// HybridMax is the SyncHybrid threshold.
	HybridMax int
	// CheckConflicts enables the debug invariant that no two conflicting
	// operations execute concurrently (the TC's obligation, §1.2).
	CheckConflicts bool
	// Dir, when nonempty, backs the DC's stable media (page store and
	// DC-log) with that filesystem directory so they survive process death
	// — what a standalone cmd/unbundled-dc needs to honor checkpoint
	// contracts across kill -9. Empty keeps the in-memory simulated media.
	// Reopening a directory a previous incarnation wrote runs DC-log
	// recovery before serving (the TC then resends its redo stream).
	Dir string
}

// Stats counts DC activity.
type Stats struct {
	Performs      uint64
	DupSkips      uint64 // operations recognized as already applied
	Unavailable   uint64
	StaleEpochs   uint64 // operations refused as pre-restart (epoch fence)
	ResetPages    uint64 // pages reset by partial-failure restarts
	RestoredRecs  uint64 // records restored from disk versions during reset
	ConflictViols uint64 // debug conflict-checker violations (must be 0)
	SnapshotReads uint64 // snapshot-flavor reads served
	SnapshotWaits uint64 // snapshot reads that had to wait out a safe TS
}

type dcState int

const (
	stateRunning dcState = iota
	stateDown
	stateRecovering
	stateClosed
)

// tcState is the DC's per-TC bookkeeping: the watermarks that drive
// flushing and pruning, plus the incarnation-epoch fence.
type tcState struct {
	// ctl serializes the control plane — epoch installs and the restart
	// sweep (BeginRestart), activation (EndRestart), checkpoint admission,
	// and watermark advances. The wire server dispatches control calls in
	// their own goroutines and the fabric duplicates deliveries, so every
	// check-then-act on this state must hold ctl or a duplicated/reordered
	// delivery can double-run the sweep, regress the fence, or slip a
	// stale watermark past a concurrent fence raise. Reads on the Perform
	// hot path stay lock-free via the atomics.
	ctl  sync.Mutex
	eosl atomic.Uint64
	lwm  atomic.Uint64
	// epoch is the fence installed by the TC's last begin_restart (zero
	// until the first restart is seen): operations, watermarks, and control
	// calls stamped with an older epoch are refused. It only ever rises.
	epoch atomic.Uint64
	// restarting is true between begin_restart and end_restart: the staged
	// epoch is fencing already, but normal processing (checkpoints) has not
	// been re-admitted yet.
	restarting atomic.Bool

	// safe is the TC's closed timestamp: the TC promises that every commit
	// with TS <= safe has been finalized at this DC and that it will never
	// assign a commit TS at or below it again. A snapshot read at T waits
	// until every registered TC's safe covers T.
	safe atomic.Uint64
	// horizon is the TC's GC watermark: no live or future snapshot of that
	// TC reads below it, so versions under the minimum horizon may be
	// reclaimed.
	horizon atomic.Uint64
	// safeCh, when non-nil, is closed under ctl the next time safe
	// advances; snapshot waiters subscribe through safeChanged.
	safeCh chan struct{}

	// held is set while the TC's low-water mark must not prune abstract
	// LSNs: from a loss of the DC's cache until the TC's EndRedo to the
	// incarnation that followed it (see LowWaterMark).
	held atomic.Bool
}

// pruneBound is how far the TC's abstract LSNs may advance: min(LWM,
// EOSL), or nothing while the low-water mark is held.
func (s *tcState) pruneBound() base.LSN {
	if s.held.Load() {
		return 0
	}
	return base.LSN(min(s.lwm.Load(), s.eosl.Load()))
}

// safeChanged returns a channel closed on the next advance of safe.
func (s *tcState) safeChanged() <-chan struct{} {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.safeCh == nil {
		s.safeCh = make(chan struct{})
	}
	return s.safeCh
}

// fenced reports whether an incoming epoch is older than the installed
// fence and must be refused.
func (s *tcState) fenced(e base.Epoch) bool { return uint64(e) < s.epoch.Load() }

// DC is one data component. It implements base.Service.
type DC struct {
	cfg   Config
	store *storage.PageStore

	mu        sync.Mutex // guards state, trees, tcs, pageTable, epochRec, incarnation, lostCache
	state     dcState
	dlog      *wal.Log
	pool      *buffer.Pool
	trees     map[string]*btree.Tree
	pageTable map[base.PageID]string // page -> table (for reset routing)
	tcs       map[base.TCID]*tcState
	// epochRec is the dLSN of the latest KindEpochs snapshot in the DC-log
	// (zero when no epoch has ever been staged). Truncation re-appends a
	// fresh snapshot whenever it would discard this record, so the fences
	// always survive DC crashes.
	epochRec base.DLSN
	// incarnation is the token Incarnation reports, drawn anew by every
	// Crash and by New, so an EndRedo meant for a lost incarnation never
	// matches a later one — not even across process restarts.
	incarnation uint64
	// lostCache is set once this DC has lost a cache (Crash, or New
	// reopening Dir): every tcState is then created held.
	lostCache bool

	inflight *conflictTable

	// gcHorizon caches the minimum nonzero per-TC GC horizon so the write
	// path can prune versions without scanning the TC map.
	gcHorizon atomic.Uint64

	performs, dupSkips, unavailable   atomic.Uint64
	staleEpochs                       atomic.Uint64
	resetPages, restoredRecs, conVios atomic.Uint64
	snapReads, snapWaits              atomic.Uint64
	batches, batchOps, finalizes      atomic.Uint64
	drainRejects                      atomic.Uint64

	// draining is the operations-plane admission gate (see Drain in
	// admin.go): while set, Perform nacks new operations CodeUnavailable;
	// inflightOps tracks operations currently executing so Quiesced can
	// report when the drain has settled.
	draining    atomic.Bool
	inflightOps atomic.Int64
}

// New formats a DC over fresh stable media — or, with Config.Dir naming a
// directory a previous incarnation wrote, re-opens it: the stable pages
// and DC-log are loaded back and DC-log recovery rebuilds the search
// structures before the DC serves anything.
func New(cfg Config) (*DC, error) {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	d := &DC{
		cfg:         cfg,
		store:       storage.NewPageStore(),
		dlog:        wal.New(),
		trees:       make(map[string]*btree.Tree),
		pageTable:   make(map[base.PageID]string),
		tcs:         make(map[base.TCID]*tcState),
		incarnation: newIncarnation(),
	}
	if cfg.Dir != "" {
		var err error
		if d.store, err = storage.OpenPageStoreDir(filepath.Join(cfg.Dir, "pages")); err != nil {
			return nil, fmt.Errorf("dc %s: open page dir: %w", cfg.Name, err)
		}
		if d.dlog, err = wal.Open(filepath.Join(cfg.Dir, "dclog")); err != nil {
			return nil, fmt.Errorf("dc %s: open dc-log: %w", cfg.Name, err)
		}
	}
	if cfg.CheckConflicts {
		d.inflight = newConflictTable()
	}
	if d.store.Exists(catalogPageID) {
		// Re-open: a process death is a DC crash whose stable media
		// happen to be on disk, so restart runs the ordinary §5.3.2
		// recovery — replay the DC-log, reopen the trees from the catalog.
		d.state = stateDown
		d.lostCache = true
		if err := d.Recover(); err != nil {
			return nil, fmt.Errorf("dc %s: reopen %s: %w", cfg.Name, cfg.Dir, err)
		}
		return d, nil
	}
	d.pool = d.newPool()
	// Format: the catalog page is the first allocation. A kill on a
	// previous boot can leave a persisted allocator with no catalog page
	// (AllocPageID is durable before the catalog write lands); formatting
	// starts the world over, so the stale allocator is discarded rather
	// than bricking the directory.
	d.store.ResetForFormat()
	id := d.store.AllocPageID()
	if id != catalogPageID {
		return nil, fmt.Errorf("dc %s: catalog got page %d", cfg.Name, id)
	}
	cat := page.NewLeaf(catalogPageID)
	d.store.Write(catalogPageID, cat.Encode())
	return d, nil
}

func (d *DC) newPool() *buffer.Pool {
	return buffer.New(
		buffer.Config{Capacity: d.cfg.CacheCapacity, PageBytes: d.cfg.PageBytes,
			Strategy: d.cfg.Strategy, HybridMax: d.cfg.HybridMax},
		d.store,
		buffer.Gates{
			EOSL:       func(tc base.TCID) base.LSN { return base.LSN(d.tcState(tc).eosl.Load()) },
			LWM:        func(tc base.TCID) base.LSN { return d.tcState(tc).pruneBound() },
			ForceDCLog: func(dl base.DLSN) { d.dlog.ForceTo(base.LSN(dl)) },
		})
}

func (d *DC) tcState(tc base.TCID) *tcState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tcStateLocked(tc)
}

// tcStateLocked is tcState for callers holding d.mu.
func (d *DC) tcStateLocked(tc base.TCID) *tcState {
	s := d.tcs[tc]
	if s == nil {
		s = &tcState{}
		s.held.Store(d.lostCache)
		d.tcs[tc] = s
	}
	return s
}

// newIncarnation draws a nonzero incarnation token.
func newIncarnation() uint64 {
	for {
		if x := rand.Uint64(); x != 0 {
			return x
		}
	}
}

// poolNow returns the current buffer pool (nil while crashed). Callers
// racing with a crash may operate on a superseded pool: such work lands in
// a discarded cache, which is precisely the semantics of losing volatile
// state in the crash.
func (d *DC) poolNow() *buffer.Pool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool
}

// AppendSMO implements dclog.Logger.
func (d *DC) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(d.dlog.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (d *DC) ForceSMO(dl base.DLSN) { d.dlog.ForceTo(base.LSN(dl)) }

// Name returns the DC's configured name.
func (d *DC) Name() string { return d.cfg.Name }

// EpochOf returns the incarnation-epoch fence currently installed for tc
// (zero until the first begin_restart is seen).
func (d *DC) EpochOf(tc base.TCID) base.Epoch {
	return base.Epoch(d.tcState(tc).epoch.Load())
}

// Pool exposes the buffer pool (experiments read its stats).
func (d *DC) Pool() *buffer.Pool { return d.pool }

// Store exposes the stable page store (experiments and invariant checks).
func (d *DC) Store() *storage.PageStore { return d.store }

// DCLog exposes the DC-log (experiments measure SMO log volume).
func (d *DC) DCLog() *wal.Log { return d.dlog }

// Tree returns the B-tree for table, or nil.
func (d *DC) Tree(table string) *btree.Tree {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trees[table]
}

// Tables returns the table names (sorted order not guaranteed).
func (d *DC) Tables() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.trees))
	for t := range d.trees {
		out = append(out, t)
	}
	return out
}

// CreateTable durably creates an empty table (administrative operation,
// run at deployment time). Idempotent.
func (d *DC) CreateTable(table string) error {
	d.mu.Lock()
	if _, ok := d.trees[table]; ok {
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()

	pool := d.poolNow()
	if pool == nil {
		return d.errUnavailable()
	}
	rootID := d.store.AllocPageID()
	root := page.NewLeaf(rootID)
	rec := &dclog.CreateTree{Table: table, RootID: rootID, RootImage: root.Encode()}
	dlsn := d.AppendSMO(dclog.KindCreateTree, rec.Encode())
	root.DLSN = dlsn
	pool.MarkDirty(root, 0, 0, dlsn)
	pool.Install(root)
	pool.Unpin(rootID)
	d.updateCatalog(pool, table, rootID, dlsn)
	d.ForceSMO(dlsn)

	d.mu.Lock()
	d.trees[table] = d.newTree(table, rootID, pool)
	d.pageTable[rootID] = table
	d.mu.Unlock()
	return nil
}

// newTree binds a tree to one pool incarnation; trees are rebuilt (against
// the fresh pool) by Recover after a crash.
func (d *DC) newTree(table string, root base.PageID, pool *buffer.Pool) *btree.Tree {
	return btree.New(table, root, btree.Config{MaxPageBytes: d.cfg.PageBytes},
		pool,
		func() base.PageID {
			id := d.store.AllocPageID()
			d.mu.Lock()
			d.pageTable[id] = table
			d.mu.Unlock()
			return id
		},
		d,
		func(newRoot base.PageID, dlsn base.DLSN) {
			d.mu.Lock()
			d.pageTable[newRoot] = table
			d.mu.Unlock()
			d.updateCatalog(pool, table, newRoot, dlsn)
		})
}

// updateCatalog records table -> root in the catalog page as part of the
// system transaction with the given dLSN.
func (d *DC) updateCatalog(pool *buffer.Pool, table string, root base.PageID, dlsn base.DLSN) {
	cat, err := pool.Fetch(catalogPageID)
	if err != nil || cat == nil {
		panic(fmt.Sprintf("dc %s: catalog page unavailable: %v", d.cfg.Name, err))
	}
	cat.L.Lock()
	cat.Put(page.Record{Key: table, Value: binary.AppendUvarint(nil, uint64(root))})
	if dlsn > cat.DLSN {
		cat.DLSN = dlsn
	}
	pool.MarkDirty(cat, 0, 0, dlsn)
	cat.L.Unlock()
	pool.Unpin(catalogPageID)
}

// EndOfStableLog implements base.Service (§4.2.1): all operations with
// LSN <= eosl are stable in the TC log; causality then allows the DC to
// make them stable too. Broadcasts from a fenced incarnation are dropped;
// the fence check and the advance are one critical section, so a claim
// cannot pass the check and then land after a concurrent fence raise.
func (d *DC) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	s := d.tcState(tc)
	s.ctl.Lock()
	if s.fenced(epoch) {
		s.ctl.Unlock()
		return
	}
	if uint64(eosl) > s.eosl.Load() {
		s.eosl.Store(uint64(eosl))
	}
	s.ctl.Unlock()
	if p := d.poolNow(); p != nil {
		p.Kick()
	}
}

// SafeTS implements base.Service: the TC's closed-timestamp broadcast.
// After this call, every commit of that TC with TS <= safe is finalized at
// the DC (the finalize operations arrived through the same ordered
// resend/idempotence machinery as any write), and the TC will never assign
// a commit TS at or below safe — so a snapshot at T <= safe reads a stable
// prefix. horizon is the TC's GC watermark. Broadcasts from a fenced
// incarnation are dropped, mirroring EndOfStableLog.
func (d *DC) SafeTS(tc base.TCID, epoch base.Epoch, safe base.TS, horizon base.TS) {
	s := d.tcState(tc)
	s.ctl.Lock()
	if s.fenced(epoch) {
		s.ctl.Unlock()
		return
	}
	if uint64(safe) > s.safe.Load() {
		s.safe.Store(uint64(safe))
		if s.safeCh != nil {
			close(s.safeCh)
			s.safeCh = nil
		}
	}
	if uint64(horizon) > s.horizon.Load() {
		s.horizon.Store(uint64(horizon))
	}
	s.ctl.Unlock()
	d.refreshHorizon()
}

// refreshHorizon recomputes the cached GC horizon: the minimum nonzero
// per-TC horizon. A TC that has never broadcast one contributes no
// constraint (it also hands out no snapshots), and zero means "never
// reclaim" overall.
func (d *DC) refreshHorizon() {
	d.mu.Lock()
	var min uint64
	for _, s := range d.tcs {
		if h := s.horizon.Load(); h != 0 && (min == 0 || h < min) {
			min = h
		}
	}
	d.mu.Unlock()
	for {
		cur := d.gcHorizon.Load()
		if min <= cur || d.gcHorizon.CompareAndSwap(cur, min) {
			return
		}
	}
}

// snapshotSafeWait bounds one snapshot read's wait for the safe timestamp
// to cover its TS; on expiry the read nacks CodeUnavailable and the
// client's resend re-enters the wait.
const snapshotSafeWait = time.Second

// waitSnapshotSafe blocks until every registered TC's safe timestamp is at
// or above t. This is the lock-free read path's only synchronization: it
// never touches a lock manager, it just waits out commit finalization.
func (d *DC) waitSnapshotSafe(ctx context.Context, t base.TS) base.Code {
	var deadline *time.Timer
	for {
		var lag *tcState
		d.mu.Lock()
		for _, s := range d.tcs {
			if s.safe.Load() < uint64(t) {
				lag = s
				break
			}
		}
		d.mu.Unlock()
		if lag == nil {
			if deadline != nil {
				deadline.Stop()
			}
			return base.CodeOK
		}
		if deadline == nil {
			d.snapWaits.Add(1)
			deadline = time.NewTimer(snapshotSafeWait)
			defer deadline.Stop()
		}
		ch := lag.safeChanged()
		if lag.safe.Load() >= uint64(t) {
			continue // advanced between the scan and the subscribe
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return base.CodeCancelled
		case <-deadline.C:
			return base.CodeUnavailable
		}
	}
}

// LowWaterMark implements base.Service (§4.2.1): the TC has received
// replies for every operation with LSN <= lwm, so LSNlw on cached pages
// may advance (bounded by EOSL; see buffer and ablsn for why). Claims from
// a fenced incarnation are dropped: BeginRestart re-based the mark to zero
// precisely because the restarted TC reuses the dead incarnation's LSN
// space, and a stale in-flight claim would prune abstract LSNs into it.
// The check and the advance share ctl with BeginRestart's fence raise and
// re-base, so the stale claim either lands entirely before the raise (and
// is zeroed by the re-base) or is fenced — never in between.
//
// After this DC loses its cache (Crash, or New reopening Dir) the mark is
// held: it is recorded but prunes nothing until the TC's EndRedo names
// the current incarnation. Until the TC's redo stream has been resent, its
// mark still counts replies from the lost incarnation; pruning with it
// would swallow LSNs the redo has yet to re-apply, and the replay would
// then be skipped as a duplicate. The hold starts at the loss itself, so
// claims that arrive between Crash and Recover are held too.
func (d *DC) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	s := d.tcState(tc)
	s.ctl.Lock()
	if s.fenced(epoch) {
		s.ctl.Unlock()
		return
	}
	if uint64(lwm) > s.lwm.Load() {
		s.lwm.Store(uint64(lwm))
	}
	s.ctl.Unlock()
	if p := d.poolNow(); p != nil {
		p.Kick()
	}
}

// Checkpoint implements base.Service (§4.2.1): make stable all pages that
// contain effects of operations with LSN < newRSSP for tc, releasing the
// TC's resend obligation below newRSSP. The TC has forced its log through
// newRSSP before calling, so the causality gate is open. A checkpoint from
// a fenced incarnation is refused — releasing resend obligations based on
// a dead incarnation's view would be unrecoverable — and so is one racing
// an unfinished restart.
func (d *DC) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	s := d.tcState(tc)
	s.ctl.Lock()
	if s.fenced(epoch) {
		cur := s.epoch.Load()
		s.ctl.Unlock()
		return fmt.Errorf("dc %s: checkpoint for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	if s.restarting.Load() {
		s.ctl.Unlock()
		return fmt.Errorf("dc %s: checkpoint for tc %d during its restart", d.cfg.Name, tc)
	}
	s.ctl.Unlock()
	pool := d.runningPool()
	if pool == nil {
		return d.errUnavailable()
	}
	err := pool.FlushAll(true, func(pg *page.Page) bool {
		first, ok := pg.FirstDirty[tc]
		return ok && first < newRSSP
	})
	if err != nil {
		return err
	}
	// Best-effort pass over pages dirtied only by system transactions
	// (branch pages, the catalog): flushing them lets the DC-log truncate.
	// Pages gated by other TCs' log stability are skipped, bounding the
	// truncation point accordingly.
	_ = pool.FlushAll(false, func(pg *page.Page) bool {
		return pg.Dirty && len(pg.FirstDirty) == 0
	})
	d.truncateDCLog(pool)
	return nil
}

// Incarnation implements base.Service: the current incarnation token.
func (d *DC) Incarnation(ctx context.Context) (uint64, error) {
	if ctx.Err() != nil {
		return 0, base.CancelErr(ctx)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != stateRunning {
		return 0, d.errUnavailable()
	}
	return d.incarnation, nil
}

// EndRedo implements base.Service: tc's redo stream to the incarnation
// named by token is complete, so its low-water mark may prune again. The
// token check and the release happen under d.mu, which Crash holds while
// it draws the next token, so a release can never reach a later
// incarnation's hold.
func (d *DC) EndRedo(ctx context.Context, tc base.TCID, epoch base.Epoch, token uint64) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != stateRunning || token != d.incarnation {
		return fmt.Errorf("dc %s: end-redo for tc %d names a lost incarnation: %w",
			d.cfg.Name, tc, base.ErrUnavailable)
	}
	s := d.tcStateLocked(tc)
	if s.fenced(epoch) {
		return fmt.Errorf("dc %s: end-redo for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, s.epoch.Load(), base.ErrStaleEpoch)
	}
	s.held.Store(false)
	return nil
}

// runningPool returns the pool iff the DC is serving requests.
func (d *DC) runningPool() *buffer.Pool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != stateRunning {
		return nil
	}
	return d.pool
}

// truncateDCLog discards DC-log records whose effects are fully stable:
// everything below the minimum RecDLSN among dirty cached pages. The
// epoch-fence snapshot is not page-backed, so if truncation would discard
// the latest KindEpochs record a fresh snapshot is forced first — the
// fences must survive any crash.
func (d *DC) truncateDCLog(pool *buffer.Pool) {
	minD := d.dlog.LastLSN() + 1
	pool.Pages(func(pg *page.Page) {
		pg.L.RLock()
		if pg.Dirty && pg.RecDLSN != 0 && base.LSN(pg.RecDLSN) < minD {
			minD = base.LSN(pg.RecDLSN)
		}
		pg.L.RUnlock()
	})
	stable := d.dlog.EOSL()
	if minD > stable+1 {
		minD = stable + 1
	}
	d.mu.Lock()
	relog := d.epochRec != 0 && base.LSN(d.epochRec) < minD
	d.mu.Unlock()
	if relog {
		d.logEpochs()
	}
	d.dlog.Truncate(minD)
}

// logEpochs forces a full per-TC epoch snapshot into the DC-log. Called
// under no locks; the snapshot is taken atomically under d.mu.
func (d *DC) logEpochs() {
	d.mu.Lock()
	snap := make([]dclog.TCEpoch, 0, len(d.tcs))
	for id, s := range d.tcs {
		if e := s.epoch.Load(); e != 0 {
			snap = append(snap, dclog.TCEpoch{TC: id, Epoch: base.Epoch(e)})
		}
	}
	d.mu.Unlock()
	if len(snap) == 0 {
		return
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].TC < snap[j].TC })
	rec := &dclog.Epochs{Epochs: snap}
	dlsn := d.AppendSMO(dclog.KindEpochs, rec.Encode())
	d.mu.Lock()
	if dlsn > d.epochRec {
		d.epochRec = dlsn
	}
	d.mu.Unlock()
	d.ForceSMO(dlsn)
}

func (d *DC) running() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == stateRunning
}

// errUnavailable is the typed down/closed/recovering failure; the message
// embeds the sentinel's text so the wire layer can rehydrate it on the
// other side of a string-only control reply.
func (d *DC) errUnavailable() error {
	return fmt.Errorf("dc %s: %w", d.cfg.Name, base.ErrUnavailable)
}

// Close permanently shuts the DC down: it stops serving (operations nack
// CodeUnavailable, control calls fail typed) and will not recover.
// Idempotent — a second Close, or a Close after Crash, is a no-op. The DC
// has no background goroutines; Close exists so Deployment.Close can make
// "everything stopped" explicit and double-closes are safe.
func (d *DC) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == stateClosed {
		return
	}
	d.state = stateClosed
	d.pool = nil
}

// Stats returns a snapshot of counters.
func (d *DC) Stats() Stats {
	return Stats{
		Performs:      d.performs.Load(),
		DupSkips:      d.dupSkips.Load(),
		Unavailable:   d.unavailable.Load(),
		StaleEpochs:   d.staleEpochs.Load(),
		ResetPages:    d.resetPages.Load(),
		RestoredRecs:  d.restoredRecs.Load(),
		ConflictViols: d.conVios.Load(),
		SnapshotReads: d.snapReads.Load(),
		SnapshotWaits: d.snapWaits.Load(),
	}
}

// conflictTable is the debug checker for the §1.2 invariant: the TC never
// sends logically conflicting operations concurrently to a DC.
type conflictTable struct {
	mu  sync.Mutex
	ops map[*base.Op]struct{}
}

func newConflictTable() *conflictTable {
	return &conflictTable{ops: make(map[*base.Op]struct{})}
}

// enter registers op, reporting how many conflicting operations are
// currently in flight (excluding duplicates of op itself).
func (c *conflictTable) enter(op *base.Op) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	conflicts := 0
	for other := range c.ops {
		if other.TC == op.TC && other.LSN == op.LSN {
			continue // resend duplicate of the same request
		}
		if op.ConflictsWith(other) {
			conflicts++
		}
	}
	c.ops[op] = struct{}{}
	return conflicts
}

func (c *conflictTable) exit(op *base.Op) {
	c.mu.Lock()
	delete(c.ops, op)
	c.mu.Unlock()
}

// discardStale drops tc's entries stamped with an epoch below the fence:
// fenced operations still draining through the DC (e.g. parked on a page
// barrier) must not count as conflicts against the new incarnation. Their
// own deferred exit calls become harmless double-deletes.
func (c *conflictTable) discardStale(tc base.TCID, fence base.Epoch) {
	c.mu.Lock()
	for op := range c.ops {
		if op.TC == tc && op.Epoch < fence {
			delete(c.ops, op)
		}
	}
	c.mu.Unlock()
}
