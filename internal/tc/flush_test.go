package tc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// The tests in this file cover the one write path: logged writes are
// pipelined up to the transaction's barriers, where the transaction's own
// goroutine ships them as one batch per DC (Txn.flush).

// slowService delays every operation delivery, so the commit barrier has
// measurable work.
type slowService struct {
	base.Service
	delay time.Duration
}

func (s *slowService) Perform(ctx context.Context, op *base.Op) *base.Result {
	time.Sleep(s.delay)
	return s.Service.Perform(ctx, op)
}

func (s *slowService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	time.Sleep(s.delay)
	return s.Service.PerformBatch(ctx, ops)
}

// newDelayedPair wires one TC to one DC through a delay.
func newDelayedPair(t *testing.T, delay time.Duration) (*TC, *dc.DC) {
	t.Helper()
	d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "u"} {
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	var svc base.Service = d
	if delay > 0 {
		svc = &slowService{Service: d, delay: delay}
	}
	tcx, err := New(Config{ID: 1}, []base.Service{svc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, d
}

func TestPipelinedWriteSemantics(t *testing.T) {
	tcx, _ := newDelayedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if err := x.Insert("t", "k", []byte("v1")); err != nil {
			return err
		}
		if err := x.Insert("t", "k", nil); !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("dup insert: %v", err)
		}
		if err := x.Update("t", "missing", nil); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("update missing: %v", err)
		}
		// Own write visible before it ships (transaction cache).
		if v, ok, _ := x.Read("t", "k"); !ok || string(v) != "v1" {
			return fmt.Errorf("own read: %q %v", v, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if err := x.Upsert("t", "k", []byte("v2")); err != nil {
			return err
		}
		return x.Delete("t", "k")
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if _, ok, _ := x.Read("t", "k"); ok {
			return fmt.Errorf("key survived delete")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedCommitAckBarrier(t *testing.T) {
	// With a 2ms delivery delay, Commit must not return (nor release
	// locks) until every write has been applied at the DC.
	tcx, d := newDelayedPair(t, 2*time.Millisecond)
	const n = 5
	start := time.Now()
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < n; i++ {
			if err := x.Insert("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("commit returned before any batch could have been delivered")
	}
	// After Commit returns, the DC must reflect every write.
	for i := 0; i < n; i++ {
		r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t",
			Key: fmt.Sprintf("k%d", i), Flavor: base.ReadDirty})
		if !r.Found {
			t.Fatalf("k%d not applied at DC after commit", i)
		}
	}
}

func TestPipelinedAbortDrainsBeforeUndo(t *testing.T) {
	tcx, _ := newDelayedPair(t, time.Millisecond)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "base", []byte("committed"))
	}); err != nil {
		t.Fatal(err)
	}
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Update("t", "base", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", "tmp", []byte("temp")); err != nil {
		t.Fatal(err)
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if v, ok, _ := y.Read("t", "base"); !ok || string(v) != "committed" {
			return fmt.Errorf("update not rolled back: %q %v", v, ok)
		}
		if _, ok, _ := y.Read("t", "tmp"); ok {
			return fmt.Errorf("insert not rolled back")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tcx.Stats().UndoOps != 2 {
		t.Fatalf("stats: %+v", tcx.Stats())
	}
}

func TestPipelinedVersionedBlindUpsert(t *testing.T) {
	tcx, d := newDelayedPair(t, 0)
	// Versioned upserts skip the existence pre-check entirely; semantics
	// must be unchanged, including finalize-before-unlock at commit.
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Upsert("t", "v", []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	rc := func() *base.Result {
		return d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "v",
			Flavor: base.ReadCommitted})
	}
	// Commit has drained the finalize op: read-committed sees v1 at once.
	if r := rc(); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("committed read: %+v", r)
	}
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "v", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after second commit: %+v", r)
	}
	// Aborted blind upsert rolls back via abort-versions.
	y := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := y.Upsert("t", "v", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := y.Abort(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after abort: %+v", r)
	}
}

func TestPipelinedScanSeesOwnWrites(t *testing.T) {
	tcx, _ := newDelayedPair(t, time.Millisecond)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 8; i++ {
			if err := x.Insert("t", fmt.Sprintf("s%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		// The scan must ship the buffered writes first (read-your-writes).
		keys, _, err := x.Scan("t", "s000", "s999", 0)
		if err != nil {
			return err
		}
		if len(keys) != 8 {
			return fmt.Errorf("scan sees %d of 8 own writes: %v", len(keys), keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedTCCrashRecovery(t *testing.T) {
	tcx, _ := newDelayedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	// A loser whose writes are still unshipped when the crash hits.
	loser := tcx.Begin(context.Background(), TxnOptions{})
	if err := loser.Insert("t", "loser", []byte("drop")); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update("t", "committed", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if v, ok, _ := x.Read("t", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data wrong: %q %v", v, ok)
		}
		if _, ok, _ := x.Read("t", "loser"); ok {
			return fmt.Errorf("loser survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedDCCrashRecoveryViaResend(t *testing.T) {
	tcx, d := newDelayedPair(t, 0)
	for i := 0; i < 50; i++ {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 50; i++ {
			if _, ok, _ := x.Read("t", fmt.Sprintf("k%03d", i)); !ok {
				return fmt.Errorf("key %d lost in DC crash", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedWriteRetriesWhileDCDown(t *testing.T) {
	// A write shipped while the DC is down must park in the resend loop
	// and land once the DC recovers; the committing transaction blocks at
	// its ack barrier until then.
	tcx, d := newDelayedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "pre", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	blocked := make(chan error, 1)
	go func() {
		// Versioned: the upsert needs no pre-check read, so the write is
		// logged and the txn parks at its commit barrier rather than
		// failing on a synchronous unavailable reply.
		blocked <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			return x.Upsert("t", "during", []byte("v"))
		})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("commit completed against a down DC: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never recovered after DC restart")
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if _, ok, _ := x.Read("t", "during"); !ok {
			return fmt.Errorf("write issued during outage lost")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// closedStubService mimics a wire client whose Close was called: every
// call answers CodeUnavailable and Closed reports true.
type closedStubService struct {
	base.Service
	closed atomic.Bool
}

func (s *closedStubService) Perform(ctx context.Context, op *base.Op) *base.Result {
	if s.closed.Load() {
		return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	return s.Service.Perform(ctx, op)
}

func (s *closedStubService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if !s.closed.Load() {
		return s.Service.PerformBatch(ctx, ops)
	}
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	return out
}

func (s *closedStubService) Closed() bool { return s.closed.Load() }

func TestPipelinedCommitUnblocksWhenStubClosed(t *testing.T) {
	// A wire stub closed before the TC (out-of-order shutdown) answers
	// everything with CodeUnavailable; the flush must recognize the
	// closed stub and fail the commit barrier instead of resending
	// forever.
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	stub := &closedStubService{Service: d}
	tcx, err := New(Config{ID: 1}, []base.Service{stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	stub.closed.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			return x.Upsert("t", "k", []byte("v"))
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTCStopped) {
			t.Fatalf("commit error = %v, want ErrTCStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit barrier hung against a closed stub")
	}
}

func TestPipelinedStaleBatchNotDeliveredAfterTCCrash(t *testing.T) {
	// A batch parked in the unavailable-retry loop (DC down) when the TC
	// crashes belongs to a dead incarnation: its records vanished with the
	// unforced log tail, so after recovery it must be retired, never
	// delivered — delivering would apply a write no undo covers and record
	// a reused LSN in the DC's idempotence tables. The transaction's own
	// unlocked read is the barrier that ships the batch.
	tcx, d := newDelayedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	shipped := make(chan error, 1)
	go func() {
		_, _, err := x.ReadDirty("t", "ghost")
		shipped <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the flush park in its resend loop
	tcx.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-shipped:
		// A resend landing in the instant between the DC's and the TC's
		// recovery still succeeds (BeginRestart then resets it away);
		// otherwise the dead incarnation's batch is retired.
		if err != nil && !errors.Is(err, ErrTCStopped) {
			t.Fatalf("parked flush error = %v, want ErrTCStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked flush never retired after crash+recovery")
	}
	r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "ghost",
		Flavor: base.ReadDirty})
	if r.Found {
		t.Fatal("stale batch delivered after crash+recovery")
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if v, ok, _ := y.Read("t", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data wrong: %q %v", v, ok)
		}
		return y.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedConcurrentNoConflictInvariant(t *testing.T) {
	// Concurrent conflicting transactions: the DC conflict checker must
	// stay clean, proving the ack barrier keeps strict 2PL airtight (no
	// lock release before the ops are applied).
	tcx, d := newDelayedPair(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("hot%d", i%5)
				_ = tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
					return x.Upsert("t", key, []byte(fmt.Sprintf("g%d", g)))
				})
			}
		}(g)
	}
	wg.Wait()
	if v := d.Stats().ConflictViols; v != 0 {
		t.Fatalf("conflicting concurrent operations reached the DC: %d", v)
	}
}

// countingService counts the TC's operation calls into a DC and records
// the size of every batch.
type countingService struct {
	base.Service
	mu       sync.Mutex
	performs int
	batches  []int
}

func (c *countingService) Perform(ctx context.Context, op *base.Op) *base.Result {
	c.mu.Lock()
	c.performs++
	c.mu.Unlock()
	return c.Service.Perform(ctx, op)
}

func (c *countingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	c.mu.Lock()
	c.batches = append(c.batches, len(ops))
	c.mu.Unlock()
	return c.Service.PerformBatch(ctx, ops)
}

func (c *countingService) counts() (int, []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.performs, append([]int(nil), c.batches...)
}

func newCountingPair(t *testing.T) (*TC, *countingService) {
	t.Helper()
	d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	svc := &countingService{Service: d}
	tcx, err := New(Config{ID: 1}, []base.Service{svc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, svc
}

func TestWritesShipAsOneBatchPerBarrier(t *testing.T) {
	// A versioned 4-upsert transaction needs no reads: its writes ship as
	// one batch at commit, and its commit-versions ops as a second batch
	// once the commit record is forced. Nothing goes one op at a time.
	tcx, svc := newCountingPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		for i := 0; i < 4; i++ {
			if err := x.Upsert("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	performs, batches := svc.counts()
	if performs != 0 || len(batches) != 2 || batches[0] != 4 || batches[1] != 4 {
		t.Fatalf("calls: %d Perform, PerformBatch sizes %v; want 0 and [4 4]", performs, batches)
	}
	if got := tcx.Stats().OpsSent; got != 8 {
		t.Fatalf("OpsSent = %d, want 8", got)
	}
}

func TestLargeTxnShipsInBoundedChunks(t *testing.T) {
	tcx, svc := newCountingPair(t)
	const n = 200
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		for i := 0; i < n; i++ {
			if err := x.Upsert("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, batches := svc.counts()
	total := 0
	for _, b := range batches {
		if b > maxShipBatch {
			t.Fatalf("batch of %d ops exceeds %d: %v", b, maxShipBatch, batches)
		}
		total += b
	}
	if total != 2*n {
		t.Fatalf("shipped %d ops in %v, want %d", total, batches, 2*n)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		keys, _, err := x.Scan("t", "", "", 0)
		if err != nil {
			return err
		}
		if len(keys) != n {
			return fmt.Errorf("scan sees %d of %d writes", len(keys), n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
