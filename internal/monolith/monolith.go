// Package monolith is the baseline the paper unbundles: a traditional
// integrated transactional storage manager in which the lock manager, log
// manager, buffer pool, and access methods are one tightly bound engine
// (§1 quoting Hellerstein et al.). It reuses the same B-tree, pages, and
// buffer pool as the DC, but:
//
//   - one integrated log holds user operations and structure
//     modifications, in strict history order;
//   - log records are physiological: each user-op record names the page it
//     modified, and the LSN is assigned *while the page latch is held*, so
//     the traditional idempotence test "operation LSN <= page LSN" is
//     sound (§5.1.1) — there is no out-of-order problem to solve and no
//     abstract LSNs;
//   - there are no messages: the "TC half" calls the "DC half" by function
//     call.
//
// Experiment E1 compares this engine with the unbundled kernel on the same
// workloads: the paper predicts the unbundled kernel pays a constant
// factor for its longer code paths and message round trips (§7).
package monolith

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

const catalogPageID = base.PageID(1)

// Integrated-log record kinds (values disjoint from dclog's 1..4, which
// this engine reuses verbatim for structure modifications).
const (
	recOp         uint8 = 10 + iota // physiological user operation
	recCLR                          // compensation (logical inverse)
	recCommit                       // transaction commit
	recAbort                        // abort complete
	recCheckpoint                   // redo scan start point
)

// Config shapes the engine.
type Config struct {
	// PageBytes is the split threshold (default 4096).
	PageBytes int
	// CacheCapacity is the buffer-pool budget counted in PageBytes-sized
	// pages: the pool evicts once its pages, each charged its encoded size
	// (at most one page), exceed CacheCapacity×PageBytes bytes (default
	// 1024 pages).
	CacheCapacity int
	LockTimeout   time.Duration
	// ForceDelay simulates stable-log force latency (group commit).
	ForceDelay time.Duration
}

// Stats counts engine activity.
type Stats struct {
	Commits uint64
	Aborts  uint64
	RedoOps uint64
	UndoOps uint64
}

// Engine is the integrated kernel.
type Engine struct {
	cfg   Config
	store *storage.PageStore
	log   *wal.Log
	pool  *buffer.Pool
	locks *lockmgr.Manager

	mu      sync.Mutex
	trees   map[string]*btree.Tree
	txns    map[base.TxnID]*Txn
	nextTxn uint64
	rssp    base.LSN
	down    bool

	commits, aborts, redoOps, undoOps atomic.Uint64
}

// New formats an engine over fresh stable media.
func New(cfg Config) (*Engine, error) {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	e := &Engine{
		cfg:   cfg,
		store: storage.NewPageStore(),
		log:   wal.New(),
		trees: make(map[string]*btree.Tree),
		txns:  make(map[base.TxnID]*Txn),
		locks: lockmgr.New(),
		rssp:  1,
	}
	e.log.ForceDelay = cfg.ForceDelay
	e.locks.Timeout = cfg.LockTimeout
	e.pool = e.newPool()
	id := e.store.AllocPageID()
	if id != catalogPageID {
		return nil, fmt.Errorf("monolith: catalog got page %d", id)
	}
	cat := page.NewLeaf(catalogPageID)
	e.store.Write(catalogPageID, cat.Encode())
	return e, nil
}

func (e *Engine) newPool() *buffer.Pool {
	open := func(base.TCID) base.LSN { return 1 << 62 }
	return buffer.New(
		buffer.Config{Capacity: e.cfg.CacheCapacity, PageBytes: e.cfg.PageBytes, Strategy: buffer.SyncFull},
		e.store,
		buffer.Gates{
			EOSL: open, LWM: open, // no abstract LSNs in the monolith
			// Classic write-ahead logging: force the integrated log
			// through the page LSN before the page is written.
			ForceDCLog: func(d base.DLSN) { e.log.ForceTo(base.LSN(d)) },
		})
}

// AppendSMO implements dclog.Logger on the integrated log.
func (e *Engine) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(e.log.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (e *Engine) ForceSMO(d base.DLSN) { e.log.ForceTo(base.LSN(d)) }

// Log exposes the integrated log (benches).
func (e *Engine) Log() *wal.Log { return e.log }

// Pool exposes the buffer pool (benches).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// CreateTable durably creates an empty table. Idempotent.
func (e *Engine) CreateTable(table string) error {
	e.mu.Lock()
	if _, ok := e.trees[table]; ok {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	rootID := e.store.AllocPageID()
	root := page.NewLeaf(rootID)
	rec := createTreePayload(table, rootID, root.Encode())
	dlsn := e.AppendSMO(kindCreateTree, rec)
	root.DLSN = dlsn
	e.pool.MarkDirty(root, 0, 0, dlsn)
	e.pool.Install(root)
	e.pool.Unpin(rootID)
	e.updateCatalog(table, rootID, dlsn)
	e.ForceSMO(dlsn)
	e.mu.Lock()
	e.trees[table] = e.newTree(table, rootID)
	e.mu.Unlock()
	return nil
}

func (e *Engine) newTree(table string, root base.PageID) *btree.Tree {
	return btree.New(table, root, btree.Config{MaxPageBytes: e.cfg.PageBytes},
		e.pool, e.store.AllocPageID, e,
		func(newRoot base.PageID, dlsn base.DLSN) {
			e.updateCatalog(table, newRoot, dlsn)
		})
}

func (e *Engine) updateCatalog(table string, root base.PageID, dlsn base.DLSN) {
	cat, err := e.pool.Fetch(catalogPageID)
	if err != nil || cat == nil {
		panic(fmt.Sprintf("monolith: catalog unavailable: %v", err))
	}
	cat.L.Lock()
	cat.Put(page.Record{Key: table, Value: binary.AppendUvarint(nil, uint64(root))})
	if dlsn > cat.DLSN {
		cat.DLSN = dlsn
	}
	e.pool.MarkDirty(cat, 0, 0, dlsn)
	cat.L.Unlock()
	e.pool.Unpin(catalogPageID)
}

func (e *Engine) tree(table string) *btree.Tree {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.trees[table]
}

// Checkpoint flushes all dirty pages and truncates the log below both the
// redo scan start point and the oldest active transaction.
func (e *Engine) Checkpoint() (base.LSN, error) {
	e.log.Force()
	if err := e.pool.FlushAll(true, nil); err != nil {
		return 0, err
	}
	newRSSP := e.log.LastLSN() + 1
	e.mu.Lock()
	e.rssp = newRSSP
	oldest := base.LSN(0)
	for _, x := range e.txns {
		if x.state == txnActive && x.firstLSN != 0 && (oldest == 0 || x.firstLSN < oldest) {
			oldest = x.firstLSN
		}
	}
	e.mu.Unlock()
	e.log.AppendAssign(&wal.Record{Kind: recCheckpoint, Payload: binary.AppendUvarint(nil, uint64(newRSSP))})
	e.log.Force()
	trunc := newRSSP
	if oldest != 0 && oldest < trunc {
		trunc = oldest
	}
	e.log.Truncate(trunc)
	return newRSSP, nil
}

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Commits: e.commits.Load(),
		Aborts:  e.aborts.Load(),
		RedoOps: e.redoOps.Load(),
		UndoOps: e.undoOps.Load(),
	}
}

// --- record payloads ----------------------------------------------------

// SMO payloads reuse the dclog formats; these helpers exist so the package
// compiles without importing dclog symbols at every call site.
const (
	kindCreateTree   = 1 // dclog.KindCreateTree
	kindSplit        = 2
	kindConsolidate  = 3
	kindRootCollapse = 4
)

func createTreePayload(table string, root base.PageID, image []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(root))
	buf = binary.AppendUvarint(buf, uint64(len(image)))
	return append(buf, image...)
}

// opPayload is the physiological user-op record: the page it modified plus
// the logical operation and undo value.
func encodeOpPayload(pageID base.PageID, op *base.Op, prior []byte, priorFound bool) []byte {
	buf := binary.AppendUvarint(nil, uint64(pageID))
	saved := op.LSN
	op.LSN = 0
	buf = base.AppendOp(buf, op)
	op.LSN = saved
	buf = binary.AppendUvarint(buf, uint64(len(prior)))
	buf = append(buf, prior...)
	if priorFound {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func decodeOpPayload(payload []byte) (pageID base.PageID, op *base.Op, prior []byte, priorFound bool, err error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	pageID = base.PageID(u)
	op, rest, err := base.DecodeOp(payload[w:])
	if err != nil {
		return 0, nil, nil, false, err
	}
	n, w2 := binary.Uvarint(rest)
	if w2 <= 0 || n > uint64(len(rest)-w2) {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	rest = rest[w2:]
	if n > 0 {
		prior = append([]byte(nil), rest[:n]...)
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	return pageID, op, prior, rest[0] != 0, nil
}
