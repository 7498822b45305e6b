package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// testEnv wires a tree over a real pool, store, and DC-log.
type testEnv struct {
	store *storage.PageStore
	pool  *buffer.Pool
	dlog  *wal.Log
	tree  *Tree
	roots map[string]base.PageID
	mu    sync.Mutex
}

// AppendSMO implements dclog.Logger.
func (e *testEnv) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(e.dlog.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (e *testEnv) ForceSMO(d base.DLSN) { e.dlog.ForceTo(base.LSN(d)) }

func newEnv(t *testing.T, maxBytes int) *testEnv {
	t.Helper()
	e := &testEnv{store: storage.NewPageStore(), roots: map[string]base.PageID{}}
	e.dlog = wal.New()
	open := func(base.TCID) base.LSN { return 1 << 60 } // gates open for tree tests
	e.pool = buffer.New(buffer.Config{Capacity: 64, Strategy: buffer.SyncFull},
		e.store, buffer.Gates{EOSL: open, LWM: open,
			ForceDCLog: func(d base.DLSN) { e.ForceSMO(d) }})
	root := page.NewLeaf(e.store.AllocPageID())
	e.pool.Install(root)
	e.pool.Unpin(root.ID)
	e.tree = New("t", root.ID, Config{MaxPageBytes: maxBytes}, e.pool,
		e.store.AllocPageID, e,
		func(newRoot base.PageID, dlsn base.DLSN) {
			e.mu.Lock()
			e.roots["t"] = newRoot
			e.mu.Unlock()
		})
	return e
}

func (e *testEnv) put(t *testing.T, key, val string) {
	t.Helper()
	_, blocked, err := e.tree.Apply(key, func(leaf *page.Page) bool {
		leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte(val)})
		e.pool.MarkDirty(leaf, 1, 0, 0)
		return false
	})
	if err != nil || blocked {
		t.Fatalf("put %q: err=%v blocked=%v", key, err, blocked)
	}
}

func (e *testEnv) del(t *testing.T, key string) {
	t.Helper()
	_, _, err := e.tree.Apply(key, func(leaf *page.Page) bool {
		leaf.Remove(key)
		e.pool.MarkDirty(leaf, 1, 0, 0)
		return false
	})
	if err != nil {
		t.Fatalf("del %q: %v", key, err)
	}
}

func (e *testEnv) get(t *testing.T, key string) (string, bool) {
	t.Helper()
	var val string
	var ok bool
	if err := e.tree.View(key, func(leaf *page.Page) {
		if r := leaf.Get(key); r != nil {
			val, ok = string(r.Value), true
		}
	}); err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	return val, ok
}

func TestInsertSearchSingleLeaf(t *testing.T) {
	e := newEnv(t, 4096)
	e.put(t, "b", "vb")
	e.put(t, "a", "va")
	if v, ok := e.get(t, "a"); !ok || v != "va" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if _, ok := e.get(t, "zz"); ok {
		t.Fatal("phantom key")
	}
}

func TestSplitsPreserveAllKeys(t *testing.T) {
	e := newEnv(t, 256) // tiny pages force many splits
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		e.put(t, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%d", i))
	}
	splits, _ := e.tree.Stats()
	if splits == 0 {
		t.Fatal("expected splits with tiny pages")
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, err := e.tree.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("key count = %d want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("keys unsorted")
	}
	for i := 0; i < n; i++ {
		if v, ok := e.get(t, fmt.Sprintf("key%05d", i)); !ok || v != fmt.Sprintf("val%d", i) {
			t.Fatalf("lost key %d: %q %v", i, v, ok)
		}
	}
}

func TestDeleteAndConsolidate(t *testing.T) {
	e := newEnv(t, 256)
	const n = 400
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("key%05d", i), "v")
	}
	// Delete most keys; consolidations should shrink the tree.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			e.del(t, fmt.Sprintf("key%05d", i))
		}
	}
	_, consolidates := e.tree.Stats()
	if consolidates == 0 {
		t.Fatal("expected consolidations")
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, _ := e.tree.Keys()
	if len(keys) != n/10 {
		t.Fatalf("keys = %d want %d", len(keys), n/10)
	}
	for i := 0; i < n; i += 10 {
		if _, ok := e.get(t, fmt.Sprintf("key%05d", i)); !ok {
			t.Fatalf("surviving key %d lost", i)
		}
	}
}

func TestDeleteAllCollapsesToEmptyTree(t *testing.T) {
	e := newEnv(t, 256)
	const n = 300
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("key%05d", i), "v")
	}
	for i := 0; i < n; i++ {
		e.del(t, fmt.Sprintf("key%05d", i))
	}
	keys, err := e.tree.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("residual keys: %v", keys)
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, 256)
	for i := 0; i < 200; i++ {
		e.put(t, fmt.Sprintf("k%04d", i), "v")
	}
	var got []string
	err := e.tree.Scan("k0050", func(leaf *page.Page) bool {
		stop := leaf.Ascend("k0050", "k0060", func(r *page.Record) bool {
			got = append(got, r.Key)
			return true
		})
		return !stop && (len(leaf.Recs) == 0 || leaf.Recs[len(leaf.Recs)-1].Key < "k0060")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k0050" || got[9] != "k0059" {
		t.Fatalf("scan = %v", got)
	}
}

func TestConcurrentApplies(t *testing.T) {
	e := newEnv(t, 512)
	var wg sync.WaitGroup
	const writers = 8
	const perW = 150
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("w%02d-%04d", w, i)
				_, _, err := e.tree.Apply(key, func(leaf *page.Page) bool {
					leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte("v")})
					e.pool.MarkDirty(leaf, 1, 0, 0)
					return false
				})
				if err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, _ := e.tree.Keys()
	if len(keys) != writers*perW {
		t.Fatalf("keys = %d want %d", len(keys), writers*perW)
	}
}

func TestTreeVsModelRandomOps(t *testing.T) {
	e := newEnv(t, 200)
	model := map[string]string{}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%03d", rnd.Intn(300))
		switch rnd.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			e.put(t, k, v)
			model[k] = v
		case 2:
			e.del(t, k)
			delete(model, k)
		}
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		if got, ok := e.get(t, k); !ok || got != want {
			t.Fatalf("key %q: got %q,%v want %q", k, got, ok, want)
		}
	}
	keys, _ := e.tree.Keys()
	if len(keys) != len(model) {
		t.Fatalf("tree has %d keys, model %d", len(keys), len(model))
	}
}

func TestRootPointerPersistedViaCallback(t *testing.T) {
	e := newEnv(t, 128)
	for i := 0; i < 200; i++ {
		e.put(t, fmt.Sprintf("key%04d", i), "v")
	}
	e.mu.Lock()
	persisted := e.roots["t"]
	e.mu.Unlock()
	if persisted == 0 {
		t.Fatal("root change callback never fired despite splits")
	}
	if persisted != e.tree.Root() {
		t.Fatalf("catalog root %d != tree root %d", persisted, e.tree.Root())
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	e := newEnv(&testing.T{}, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key%09d", i)
		e.tree.Apply(key, func(leaf *page.Page) bool {
			leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte("v")})
			e.pool.MarkDirty(leaf, 1, 0, 0)
			return false
		})
	}
}

func BenchmarkTreeRead(b *testing.B) {
	e := newEnv(&testing.T{}, 4096)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key%09d", i)
		e.tree.Apply(key, func(leaf *page.Page) bool {
			leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte("v")})
			e.pool.MarkDirty(leaf, 1, 0, 0)
			return false
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			e.tree.View(fmt.Sprintf("key%09d", i%10000), func(*page.Page) {})
		}
	})
}
