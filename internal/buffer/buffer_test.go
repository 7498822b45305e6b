package buffer

import (
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// gateState is an adjustable Gates implementation for tests.
type gateState struct {
	mu     sync.Mutex
	eosl   map[base.TCID]base.LSN
	lwm    map[base.TCID]base.LSN
	forced base.DLSN
}

func newGateState() *gateState {
	return &gateState{eosl: map[base.TCID]base.LSN{}, lwm: map[base.TCID]base.LSN{}}
}

func (g *gateState) gates() Gates {
	return Gates{
		EOSL: func(tc base.TCID) base.LSN {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.eosl[tc]
		},
		LWM: func(tc base.TCID) base.LSN {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.lwm[tc]
		},
		ForceDCLog: func(d base.DLSN) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if d > g.forced {
				g.forced = d
			}
		},
	}
}

func (g *gateState) set(tc base.TCID, eosl, lwm base.LSN) {
	g.mu.Lock()
	g.eosl[tc] = eosl
	g.lwm[tc] = lwm
	g.mu.Unlock()
}

func newTestPool(t *testing.T, cfg Config) (*Pool, *storage.PageStore, *gateState) {
	t.Helper()
	store := storage.NewPageStore()
	g := newGateState()
	return New(cfg, store, g.gates()), store, g
}

func dirtyLeaf(p *Pool, store *storage.PageStore, tc base.TCID, lsns ...base.LSN) *page.Page {
	pg := page.NewLeaf(store.AllocPageID())
	for _, l := range lsns {
		pg.Ab.Ensure(tc).Add(l)
		p.MarkDirty(pg, tc, l, 0)
	}
	p.Install(pg)
	return pg
}

func TestFetchMissAndHit(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	pg.Put(page.Record{Key: "k", Value: []byte("v")})
	store.Write(pg.ID, pg.Encode())

	got, err := p.Fetch(pg.ID)
	if err != nil || got == nil || got.Get("k") == nil {
		t.Fatalf("fetch: %v %v", got, err)
	}
	got2, _ := p.Fetch(pg.ID)
	if got2 != got {
		t.Fatal("second fetch must hit the same frame")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.Unpin(pg.ID)
	p.Unpin(pg.ID)
	if missing, err := p.Fetch(base.PageID(9999)); err != nil || missing != nil {
		t.Fatalf("missing page: %v %v", missing, err)
	}
}

func TestCausalityGateBlocksFlush(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	pg := dirtyLeaf(p, store, 1, 10)
	// EOSL(1)=5 < maxApplied=10: flush must not happen.
	g.set(1, 5, 10)
	if err := p.FlushPage(pg.ID, false); err != ErrNotFlushable {
		t.Fatalf("err = %v, want ErrNotFlushable", err)
	}
	if store.Exists(pg.ID) {
		t.Fatal("causality violated: unstable op reached disk")
	}
	// Log catches up: flush proceeds.
	g.set(1, 10, 10)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	if !store.Exists(pg.ID) || pg.Dirty {
		t.Fatal("flush did not complete")
	}
}

func TestFlushWaitsForEOSLKick(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	pg := dirtyLeaf(p, store, 1, 10)
	g.set(1, 5, 10)
	done := make(chan error, 1)
	go func() { done <- p.FlushPage(pg.ID, true) }()
	select {
	case err := <-done:
		t.Fatalf("flush returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.set(1, 10, 10)
	p.Kick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flush never woke up")
	}
}

func TestSyncFullEmbedsInSet(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	pg := dirtyLeaf(p, store, 1, 5, 7, 9)
	g.set(1, 9, 0) // log stable, but LWM has not advanced
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, err := page.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a := stable.Ab.Get(1)
	if a == nil || a.InCount() != 3 {
		t.Fatalf("full strategy must embed the set: %v", a)
	}
	if !stable.Ab.Contains(1, 7) || stable.Ab.Contains(1, 6) {
		t.Fatal("stable claims wrong")
	}
}

func TestSyncBlockWaitsForLWM(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncBlock})
	pg := dirtyLeaf(p, store, 1, 5, 7)
	g.set(1, 7, 0)
	if err := p.FlushPage(pg.ID, false); err != ErrNotFlushable {
		t.Fatalf("err = %v", err)
	}
	// New op above the barrier must be refused while a waiting flush runs.
	done := make(chan error, 1)
	go func() { done <- p.FlushPage(pg.ID, true) }()
	time.Sleep(10 * time.Millisecond)
	pg.L.Lock()
	blockedHigh := p.BarrierBlocked(pg, 1, 8)
	blockedLow := p.BarrierBlocked(pg, 1, 6)
	pg.L.Unlock()
	if !blockedHigh {
		t.Fatal("op above barrier must be blocked")
	}
	if blockedLow {
		t.Fatal("op below barrier must proceed (needed for LWM progress)")
	}
	// LWM covers the set: flush completes with an empty In set on disk.
	g.set(1, 7, 7)
	p.Kick()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, _ := page.Decode(data)
	if a := stable.Ab.Get(1); a == nil || a.InCount() != 0 || a.Low != 7 {
		t.Fatalf("block strategy must write a lone LSNlw: %v", a)
	}
	// Barrier cleared after flush.
	pg.L.Lock()
	still := p.BarrierBlocked(pg, 1, 100)
	pg.L.Unlock()
	if still {
		t.Fatal("barrier survived the flush")
	}
}

func TestSyncHybridThreshold(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncHybrid, HybridMax: 2})
	pg := dirtyLeaf(p, store, 1, 2, 4, 6, 8)
	g.set(1, 8, 0)
	if err := p.FlushPage(pg.ID, false); err != ErrNotFlushable {
		t.Fatalf("4 > HybridMax: err = %v", err)
	}
	// LWM advance prunes to {6,8}: within threshold, embeds the remainder.
	g.set(1, 8, 4)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, _ := page.Decode(data)
	if a := stable.Ab.Get(1); a == nil || a.InCount() != 2 || a.Low != 4 {
		t.Fatalf("hybrid result: %v", a)
	}
}

func TestAdvanceNeverExceedsEOSL(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	pg := dirtyLeaf(p, store, 1, 3)
	// LWM raced ahead of the stable log (replies received for unforced
	// ops): pruning must clamp at EOSL so the stable page never claims
	// idempotence for losable operations.
	g.set(1, 3, 100)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, _ := page.Decode(data)
	a := stable.Ab.Get(1)
	if a.Low > 3 {
		t.Fatalf("stable Low %d exceeds EOSL 3", a.Low)
	}
	if a.Contains(50) {
		t.Fatal("stable page claims an operation beyond the stable log")
	}
}

func TestDCLogWALGate(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	pg := page.NewLeaf(store.AllocPageID())
	pg.DLSN = 42 // latest SMO reflected in the page
	p.MarkDirty(pg, 0, 0, 42)
	p.Install(pg)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	forced := g.forced
	g.mu.Unlock()
	if forced < 42 {
		t.Fatalf("DC-log not forced before page write: %d", forced)
	}
}

func TestEvictionRespectsGates(t *testing.T) {
	// The budget is two pages of 40 bytes; a dirtyLeaf page with one LSN
	// is charged 38.
	p, store, g := newTestPool(t, Config{Capacity: 2, PageBytes: 40, Strategy: SyncFull})
	// Page A flushable, page B gated.
	a := dirtyLeaf(p, store, 1, 1)
	b := dirtyLeaf(p, store, 2, 50)
	g.set(1, 10, 10)
	g.set(2, 0, 0) // B's TC log not stable
	p.Unpin(a.ID)
	p.Unpin(b.ID)
	// Insert a third page to force eviction.
	c := dirtyLeaf(p, store, 1, 2)
	p.Unpin(c.ID)
	// B must never be evicted to disk while gated.
	if store.Exists(b.ID) {
		t.Fatal("gated page leaked to disk via eviction")
	}
	// The eviction did happen: A, the coldest page, went to disk.
	if n := p.Stats().Evictions; n != 1 || !store.Exists(a.ID) || p.Cached() != 2 {
		t.Fatalf("evictions = %d, A on disk = %v, cached = %d; want 1, true, 2",
			n, store.Exists(a.ID), p.Cached())
	}
}

// TestByteBudgetChargesPageSize checks the budget is in bytes: small
// pages fit beyond the page count, a page's charge follows MarkDirty as it
// grows (up to one page), and growth past the budget evicts on the next
// insert.
func TestByteBudgetChargesPageSize(t *testing.T) {
	p, store, g := newTestPool(t, Config{Capacity: 4, PageBytes: 1000, Strategy: SyncFull})
	g.set(1, 100, 100)
	var pages []*page.Page
	for i := 0; i < 10; i++ {
		pg := dirtyLeaf(p, store, 1, base.LSN(i+1))
		p.Unpin(pg.ID)
		pages = append(pages, pg)
	}
	small := pages[0].Size()
	if p.Cached() != 10 || p.CachedBytes() != 10*small || p.Stats().Evictions != 0 {
		t.Fatalf("10 pages of %d bytes under a 4000-byte budget: cached %d, charged %d, evictions %d",
			small, p.Cached(), p.CachedBytes(), p.Stats().Evictions)
	}
	grow := func(pg *page.Page, n int) int {
		pg.L.Lock()
		defer pg.L.Unlock()
		pg.Put(page.Record{Key: "k", Value: make([]byte, n)})
		p.MarkDirty(pg, 1, 20, 0)
		return pg.Size()
	}
	// One page grows to ~900 bytes, another past a whole page: the
	// overfull one is charged one page.
	mid := grow(pages[9], 900)
	if over := grow(pages[8], 5000); over <= 1000 {
		t.Fatalf("page of %d bytes is not overfull", over)
	}
	if got, want := p.CachedBytes(), 8*small+mid+1000; got != want {
		t.Fatalf("charged %d bytes, want %d", got, want)
	}
	// Two more pages grow to ~900 bytes and overflow the budget: the next
	// insert evicts cold pages until it holds again.
	for i := 0; i < 2; i++ {
		pg := dirtyLeaf(p, store, 1, base.LSN(30+i))
		grow(pg, 900)
		p.Unpin(pg.ID)
	}
	if p.CachedBytes() <= 4000 || p.Stats().Evictions != 0 {
		t.Fatalf("before the insert: charged %d bytes, %d evictions", p.CachedBytes(), p.Stats().Evictions)
	}
	p.Unpin(dirtyLeaf(p, store, 1, 40).ID)
	if p.CachedBytes() > 4000 || p.Stats().Evictions == 0 {
		t.Fatalf("after overflow: charged %d bytes, %d evictions", p.CachedBytes(), p.Stats().Evictions)
	}
	if p.Drop(pages[9].ID, false); p.CachedBytes() > 4000-mid {
		t.Fatalf("drop left %d bytes charged", p.CachedBytes())
	}
}

func TestFlushAllWithPredicate(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	a := dirtyLeaf(p, store, 1, 1)
	b := dirtyLeaf(p, store, 1, 2)
	g.set(1, 10, 10)
	err := p.FlushAll(false, func(pg *page.Page) bool { return pg.ID == a.ID })
	if err != nil {
		t.Fatal(err)
	}
	if !store.Exists(a.ID) || store.Exists(b.ID) {
		t.Fatal("predicate not honored")
	}
}

func TestDropAndFree(t *testing.T) {
	p, store, g := newTestPool(t, Config{Strategy: SyncFull})
	g.set(1, 10, 10)
	pg := dirtyLeaf(p, store, 1, 1)
	p.FlushPage(pg.ID, false)
	p.Unpin(pg.ID)
	p.Drop(pg.ID, true)
	if p.Cached() != 0 || store.Exists(pg.ID) {
		t.Fatal("drop+free incomplete")
	}
}

func TestMarkDirtyTracksFirstDirtyAndRecDLSN(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	p.MarkDirty(pg, 1, 10, 0)
	p.MarkDirty(pg, 1, 5, 0)
	p.MarkDirty(pg, 1, 20, 0)
	if pg.FirstDirty[1] != 5 {
		t.Fatalf("FirstDirty = %d want 5", pg.FirstDirty[1])
	}
	p.MarkDirty(pg, 0, 0, 9)
	p.MarkDirty(pg, 0, 0, 3)
	if pg.RecDLSN != 3 {
		t.Fatalf("RecDLSN = %d want 3", pg.RecDLSN)
	}
}

func TestConcurrentFetchSingleFrame(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	store.Write(pg.ID, pg.Encode())
	var wg sync.WaitGroup
	frames := make([]*page.Page, 16)
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := p.Fetch(pg.ID)
			if err != nil {
				t.Error(err)
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[0] {
			t.Fatal("concurrent fetch produced distinct frames for one page")
		}
	}
}
