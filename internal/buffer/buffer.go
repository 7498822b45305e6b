// Package buffer implements the DC's cache manager (§4.1.2(3)). Flushing a
// page to stable storage is gated by three rules:
//
//  1. Causality / distributed WAL (§4.2): a page may be made stable only
//     when, for every TC with operations reflected in the page, the TC log
//     is stable at least through the page's highest applied LSN
//     (end_of_stable_log). Otherwise a TC crash could lose operations that
//     the stable database state already reflects.
//  2. DC-log WAL (§5.2.2): the DC-log must be forced through the page's
//     RecDLSN before the page is written, so structure modifications are
//     never reflected on disk without their log records.
//  3. Page sync (§5.1.2): the abstract LSN must be made stable atomically
//     with the page. The paper's three strategies are implemented:
//     SyncBlock waits (refusing new higher-LSN operations) until the
//     TC-supplied low-water mark swallows the whole {LSNin} set and a lone
//     LSNlw suffices; SyncFull embeds the entire abstract LSN in the page;
//     SyncHybrid waits only until the set is "reduced to a manageable
//     size" and then embeds it.
//
// Before the gates are tested a flush advances every TC's LSNlw to
// min(LWM, EOSL). The DC already prunes the writing TC's entry that way on
// every write, so this pass only catches up with watermarks that moved
// since the page was last written.
//
// The cache is budgeted in bytes: Capacity pages of PageBytes each. Every
// frame is charged its page's Size, capped at PageBytes, and the charge is
// refreshed whenever MarkDirty reports a change, so a pool of well-filled
// pages holds fewer of them than a pool of near-empty ones. The cap covers
// the one kind of page a split cannot shrink, a single record whose
// version history outgrew the page: it fills one page slot, as it did
// under a frame-count cap, so eviction never leaves fewer than Capacity
// pages cached.
package buffer

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/ablsn"
	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// SyncStrategy selects the §5.1.2 page-sync algorithm.
type SyncStrategy uint8

const (
	// SyncBlock is strategy 1: delay the flush (and refuse operations with
	// LSNs above the highest tracked LSNin) until the low-water mark
	// covers every LSNin; the page then carries only LSNlw.
	SyncBlock SyncStrategy = iota + 1
	// SyncFull is strategy 2: include the entire abstract LSN on the page.
	SyncFull
	// SyncHybrid is strategy 3: wait until |{LSNin}| <= HybridMax, then
	// embed the remaining abstract LSN.
	SyncHybrid
)

func (s SyncStrategy) String() string {
	switch s {
	case SyncBlock:
		return "block"
	case SyncFull:
		return "full"
	case SyncHybrid:
		return "hybrid"
	}
	return "unknown"
}

// Gates supplies the watermarks that gate flushing.
type Gates struct {
	// EOSL returns the end of stable log for a TC (causality gate).
	EOSL func(base.TCID) base.LSN
	// LWM returns the low-water mark for a TC (abLSN pruning).
	LWM func(base.TCID) base.LSN
	// ForceDCLog forces the DC-log through the given dLSN (WAL gate).
	ForceDCLog func(base.DLSN)
}

// Config shapes the pool.
type Config struct {
	// Capacity is the cache budget counted in PageBytes-sized pages: the
	// pool evicts once its frames' charges (each page's Size, at most
	// PageBytes) exceed Capacity×PageBytes bytes (default 1024 pages).
	Capacity int
	// PageBytes is the page size the budget is counted in (default 4096);
	// the DC passes its split threshold.
	PageBytes int
	// Strategy is the page-sync strategy.
	Strategy SyncStrategy
	// HybridMax is the SyncHybrid set-size threshold.
	HybridMax int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 4096
	}
	if c.Strategy == 0 {
		c.Strategy = SyncFull
	}
	if c.HybridMax <= 0 {
		c.HybridMax = 8
	}
	return c
}

// Stats counts pool activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Flushes     uint64
	Evictions   uint64
	FlushWaits  uint64
	PageBytes   uint64 // bytes written to stable pages
	AbLSNBytes  uint64 // of which abstract-LSN bytes (experiment E2/E3)
	BarrierHits uint64 // operations refused by the SyncBlock barrier
}

// ErrNotFlushable is returned by non-waiting flushes whose gates are not
// yet satisfied.
var ErrNotFlushable = errors.New("buffer: flush gates not satisfied")

type frame struct {
	pg  *page.Page
	pin int
	el  *list.Element
	// charge is what the frame counts against the budget, chargeOf(pg)
	// when last measured (guarded by Pool.mu).
	charge int
	// flushWanted marks a SyncBlock flush in progress: appliers must not
	// add LSNs above barrier (per TC) until the flush completes.
	flushWanted bool
	barrier     map[base.TCID]base.LSN
}

// Pool is the page cache. All methods are safe for concurrent use.
type Pool struct {
	cfg    Config
	budget int // Capacity×PageBytes
	store  *storage.PageStore
	gates  Gates

	mu      sync.Mutex
	cond    *sync.Cond
	kickGen uint64
	frames  map[base.PageID]*frame
	lru     *list.List // front = most recently used; values are PageIDs
	charged int        // sum of the frames' charges

	hits, misses, flushes, evictions, flushWaits atomic.Uint64
	pageBytes, abBytes, barrierHits              atomic.Uint64
}

// New returns a pool over store with the given gates.
func New(cfg Config, store *storage.PageStore, gates Gates) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, budget: cfg.Capacity * cfg.PageBytes, store: store, gates: gates,
		frames: make(map[base.PageID]*frame), lru: list.New()}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Strategy returns the configured page-sync strategy.
func (p *Pool) Strategy() SyncStrategy { return p.cfg.Strategy }

// Kick wakes flushers waiting on watermark progress; the DC calls it after
// every end_of_stable_log / low_water_mark message.
func (p *Pool) Kick() {
	p.mu.Lock()
	p.kickGen++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Fetch returns the page, reading and decoding it from stable storage on a
// miss. The frame is pinned; callers must Unpin. Fetching an ID with no
// stable contents and no cached frame returns nil.
func (p *Pool) Fetch(id base.PageID) (*page.Page, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pin++
		p.lru.MoveToFront(f.el)
		p.mu.Unlock()
		p.hits.Add(1)
		return f.pg, nil
	}
	p.mu.Unlock()
	p.misses.Add(1)
	data, ok := p.store.Read(id)
	if !ok {
		return nil, nil
	}
	pg, err := page.Decode(data)
	if err != nil {
		return nil, err
	}
	size := p.chargeOf(pg)
	p.mu.Lock()
	if f, ok := p.frames[id]; ok { // lost a race; use the winner
		f.pin++
		p.lru.MoveToFront(f.el)
		p.mu.Unlock()
		return f.pg, nil
	}
	f := p.insertLocked(pg, size)
	f.pin++
	p.mu.Unlock()
	p.maybeEvict()
	return f.pg, nil
}

// chargeOf is the budget charge for pg: its Size, at most one page.
func (p *Pool) chargeOf(pg *page.Page) int { return min(pg.Size(), p.cfg.PageBytes) }

// insertLocked adds a frame for pg charged size bytes (caller holds p.mu).
func (p *Pool) insertLocked(pg *page.Page, size int) *frame {
	f := &frame{pg: pg, charge: size}
	f.el = p.lru.PushFront(pg.ID)
	p.frames[pg.ID] = f
	p.charged += size
	return f
}

// removeLocked drops f from the cache and the budget (caller holds p.mu).
func (p *Pool) removeLocked(f *frame) {
	p.lru.Remove(f.el)
	delete(p.frames, f.pg.ID)
	p.charged -= f.charge
}

// Install adds a freshly created page (from an SMO or recovery) to the
// cache, pinned and dirty. The caller allocated the ID.
func (p *Pool) Install(pg *page.Page) {
	pg.Dirty = true
	size := p.chargeOf(pg)
	p.mu.Lock()
	if old, ok := p.frames[pg.ID]; ok {
		// Recovery can re-install over a cached frame: replace contents.
		old.pg = pg
		old.pin++
		p.charged += size - old.charge
		old.charge = size
		p.lru.MoveToFront(old.el)
		p.mu.Unlock()
		return
	}
	f := p.insertLocked(pg, size)
	f.pin++
	p.mu.Unlock()
	p.maybeEvict()
}

// Unpin releases one pin on id.
func (p *Pool) Unpin(id base.PageID) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		f.pin--
		if f.pin < 0 {
			panic("buffer: negative pin count")
		}
	}
	p.mu.Unlock()
}

// MarkDirty records a TC operation (lsn may be 0 for pure SMO dirtying)
// and/or an SMO (dlsn may be 0) applied to pg, and re-measures pg's charge
// against the cache budget. Callers hold the page latch.
func (p *Pool) MarkDirty(pg *page.Page, tc base.TCID, lsn base.LSN, dlsn base.DLSN) {
	pg.Dirty = true
	size := p.chargeOf(pg)
	p.mu.Lock()
	if f, ok := p.frames[pg.ID]; ok && f.pg == pg {
		p.charged += size - f.charge
		f.charge = size
	}
	p.mu.Unlock()
	if lsn != 0 {
		if pg.FirstDirty == nil {
			pg.FirstDirty = make(map[base.TCID]base.LSN, 1)
		}
		if cur, ok := pg.FirstDirty[tc]; !ok || lsn < cur {
			pg.FirstDirty[tc] = lsn
		}
	}
	if dlsn != 0 && (pg.RecDLSN == 0 || dlsn < pg.RecDLSN) {
		pg.RecDLSN = dlsn
	}
}

// BarrierBlocked reports whether applying an operation with lsn for tc on
// pg must wait for a pending SyncBlock flush (§5.1.2 strategy 1: "we
// refuse to execute operations on the page with LSNs greater than the
// highest valued LSNin"). Callers hold the page latch.
func (p *Pool) BarrierBlocked(pg *page.Page, tc base.TCID, lsn base.LSN) bool {
	if p.cfg.Strategy != SyncBlock {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pg.ID]
	if !ok || !f.flushWanted {
		return false
	}
	bar, ok := f.barrier[tc]
	if !ok {
		bar = 0 // unknown TC: all new ops wait until flush completes
	}
	if lsn > bar {
		p.barrierHits.Add(1)
		return true
	}
	return false
}

// BarrierWait blocks until the pending flush on id completes (or until the
// next watermark kick re-opens the question). Callers must not hold the
// page latch.
func (p *Pool) BarrierWait(id base.PageID) {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok || !f.flushWanted {
		p.mu.Unlock()
		return
	}
	gen := p.kickGen
	for gen == p.kickGen {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// FlushPage makes id stable, honoring the gates. With wait=false it
// returns ErrNotFlushable when a gate is closed; with wait=true it blocks
// until the gates open (watermark kicks re-evaluate). Unknown/clean pages
// succeed trivially.
func (p *Pool) FlushPage(id base.PageID, wait bool) error {
	p.mu.Lock()
	f, ok := p.frames[id]
	if !ok {
		p.mu.Unlock()
		return nil
	}
	f.pin++ // hold the frame across the flush
	p.mu.Unlock()
	err := p.flushFrame(f, wait)
	p.Unpin(id)
	return err
}

func (p *Pool) flushFrame(f *frame, wait bool) error {
	// SyncBlock can deadlock across pages: flush A waits for a low-water
	// mark that requires an operation blocked by flush B's barrier and
	// vice versa. After bounded waiting a blocked flush falls back to
	// embedding the remaining abstract LSN (§5.1.2: "some combination of
	// the two is also possible"), guaranteeing progress.
	blockAttempts := 0
	const blockAttemptLimit = 50
	for {
		p.mu.Lock()
		gen := p.kickGen
		p.mu.Unlock()

		f.pg.L.Lock()
		pg := f.pg
		if !pg.Dirty {
			f.pg.L.Unlock()
			p.clearFlushWanted(f)
			return nil
		}
		// Abstract-LSN advance: prune with min(LWM, EOSL) per TC — never
		// beyond EOSL, so stable pages cannot claim idempotence for
		// operations a TC crash could lose (see ablsn.A contract) — and
		// test gate 1, causality, against the same EOSL.
		open := true
		pg.Ab.Each(func(tc base.TCID, a *ablsn.A) {
			eosl := p.gates.EOSL(tc)
			a.Advance(min(p.gates.LWM(tc), eosl))
			if eosl < a.MaxApplied() {
				open = false
			}
		})
		// Gate 3: page-sync strategy.
		if open {
			switch p.cfg.Strategy {
			case SyncBlock:
				if pg.Ab.InCountTotal() > 0 && blockAttempts < blockAttemptLimit {
					open = false
					p.setBarrier(f, pg)
					blockAttempts++
				}
			case SyncHybrid:
				if pg.Ab.InCountTotal() > p.cfg.HybridMax {
					open = false
				}
			}
		}
		if !open {
			f.pg.L.Unlock()
			if !wait {
				p.clearFlushWanted(f)
				return ErrNotFlushable
			}
			p.flushWaits.Add(1)
			p.mu.Lock()
			for gen == p.kickGen {
				p.cond.Wait()
			}
			p.mu.Unlock()
			continue
		}
		// Gate 2: DC-log WAL. Force through the page's DLSN — the *latest*
		// system transaction reflected in the page — so no structure
		// modification reaches disk before its log record. (RecDLSN, the
		// earliest unflushed SMO, only drives log truncation.)
		if pg.DLSN != 0 && p.gates.ForceDCLog != nil {
			p.gates.ForceDCLog(pg.DLSN)
		}
		data := pg.Encode()
		p.store.Write(pg.ID, data)
		p.pageBytes.Add(uint64(len(data)))
		p.abBytes.Add(uint64(pg.Ab.EncodedSize()))
		pg.Dirty = false
		pg.FirstDirty = nil
		pg.RecDLSN = 0
		f.pg.L.Unlock()
		p.clearFlushWanted(f)
		p.flushes.Add(1)
		return nil
	}
}

// setBarrier records the per-TC "highest LSNin" barrier for a SyncBlock
// flush in progress. Caller holds the page latch.
func (p *Pool) setBarrier(f *frame, pg *page.Page) {
	p.mu.Lock()
	f.flushWanted = true
	if f.barrier == nil {
		f.barrier = make(map[base.TCID]base.LSN, 1)
	}
	for _, tc := range pg.Ab.TCs() {
		a := pg.Ab.Get(tc)
		bar := a.Low
		if n := a.InCount(); n > 0 {
			bar = a.In[n-1]
		}
		f.barrier[tc] = bar
	}
	p.mu.Unlock()
}

func (p *Pool) clearFlushWanted(f *frame) {
	p.mu.Lock()
	if f.flushWanted {
		f.flushWanted = false
		f.barrier = nil
		p.kickGen++
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// FlushAll flushes every cached dirty page matching pred (nil = all).
// With wait=true it blocks per page until flushable (checkpoint).
func (p *Pool) FlushAll(wait bool, pred func(*page.Page) bool) error {
	var firstErr error
	for _, f := range p.snapshot() {
		if pred != nil {
			f.pg.L.RLock()
			keep := pred(f.pg)
			f.pg.L.RUnlock()
			if !keep {
				p.Unpin(f.pg.ID)
				continue
			}
		}
		if err := p.flushFrame(f, wait); err != nil && firstErr == nil {
			firstErr = err
		}
		p.Unpin(f.pg.ID)
	}
	return firstErr
}

// snapshot pins and returns all current frames.
func (p *Pool) snapshot() []*frame {
	p.mu.Lock()
	out := make([]*frame, 0, len(p.frames))
	for _, f := range p.frames {
		f.pin++
		out = append(out, f)
	}
	p.mu.Unlock()
	return out
}

// Pages calls fn for every cached page with the frame pinned; fn is
// responsible for latching. Used by partial-failure reset (§5.3.2).
func (p *Pool) Pages(fn func(*page.Page)) {
	for _, f := range p.snapshot() {
		fn(f.pg)
		p.Unpin(f.pg.ID)
	}
}

// Drop removes the cached frame without flushing; with free=true the
// stable page is also removed (page delete, §5.2.2).
func (p *Pool) Drop(id base.PageID, free bool) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		p.removeLocked(f)
	}
	p.mu.Unlock()
	if free {
		p.store.Free(id)
	}
}

// maybeEvict evicts cold clean-or-flushable pages while the frames'
// charges exceed the byte budget.
func (p *Pool) maybeEvict() {
	for {
		p.mu.Lock()
		if p.charged <= p.budget {
			p.mu.Unlock()
			return
		}
		// Walk from coldest; pick the first unpinned candidate.
		var victim *frame
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			f := p.frames[el.Value.(base.PageID)]
			if f != nil && f.pin == 0 {
				victim = f
				f.pin++
				break
			}
		}
		p.mu.Unlock()
		if victim == nil {
			return // everything pinned; let it ride
		}
		if err := p.flushFrame(victim, false); err != nil {
			// Gates closed: skip eviction of this page for now.
			p.Unpin(victim.pg.ID)
			p.mu.Lock()
			p.lru.MoveToFront(victim.el) // don't retry it immediately
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		if f, ok := p.frames[victim.pg.ID]; ok && f == victim && f.pin == 1 && !f.pg.Dirty {
			p.removeLocked(f)
			p.evictions.Add(1)
			p.mu.Unlock()
			continue
		}
		// Re-dirtied or re-pinned during the flush; keep it.
		if f, ok := p.frames[victim.pg.ID]; ok && f == victim {
			f.pin--
		}
		p.mu.Unlock()
		return
	}
}

// Cached returns the number of cached frames.
func (p *Pool) Cached() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// CachedBytes returns the bytes the cached frames count against the
// budget.
func (p *Pool) CachedBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.charged
}

// Stats returns a snapshot of counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Flushes:     p.flushes.Load(),
		Evictions:   p.evictions.Load(),
		FlushWaits:  p.flushWaits.Load(),
		PageBytes:   p.pageBytes.Load(),
		AbLSNBytes:  p.abBytes.Load(),
		BarrierHits: p.barrierHits.Load(),
	}
}
