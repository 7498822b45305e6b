package tc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/lockmgr"
)

func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCommitBarrierCancellation: a commit whose ack barrier is stuck (DC
// down, its flush in the resend loop) returns promptly with the
// ErrCancelled-wrapped context error when cancelled — and the barrier is
// only abandoned, not broken: once the DC recovers, the resend contract
// still delivers the committed transaction's operations.
func TestCommitBarrierCancellation(t *testing.T) {
	tcx, d := newPair(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())

	// Versioned: upserts need no pre-check read, so the write after the
	// crash is logged cleanly instead of failing its pre-check at the
	// down DC.
	x := tcx.Begin(ctx, TxnOptions{Versioned: true})
	if err := x.Upsert("t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Ship the first write before the crash, then park the *next* write's
	// batch against a down DC.
	if err := x.flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if err := x.Upsert("t", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- x.Commit() }()
	time.Sleep(30 * time.Millisecond) // commit reaches the ack barrier
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled commit barrier did not return")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled commit took %v", el)
	}
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("commit error %v does not carry ErrCancelled + context.Canceled", err)
	}
	if !errors.Is(err, ErrCommitAmbiguous) {
		t.Fatalf("commit error %v does not carry ErrCommitAmbiguous", err)
	}

	// Strict 2PL: the prompt return must NOT have released the locks —
	// the write to k2 is still unacknowledged, so another transaction must
	// not be able to touch the keys until the barrier actually drains.
	if got := len(tcx.Locks().Held(x.ID())); got == 0 {
		t.Fatal("cancelled commit released locks with unacknowledged writes outstanding")
	}

	// The commit record is durable and the finisher keeps resending: after
	// DC recovery the transaction's writes must all be present.
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		for k, want := range map[string]string{"k": "v1", "k2": "v2"} {
			v, ok, err := y.Read("t", k)
			if err != nil {
				return err
			}
			if !ok || string(v) != want {
				t.Fatalf("committed write %s lost after cancel: %q %v", k, v, ok)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestBlockedLockWaitCancellation, transaction level: a Read blocked
// behind another transaction's X lock returns promptly on cancellation,
// the error carries ErrCancelled + ctx.Err(), and the blocked transaction
// has been aborted (its locks are gone; the system is not wedged).
func TestBlockedLockWaitCancellation(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	holder := tcx.Begin(context.Background(), TxnOptions{})
	if err := holder.Upsert("t", "hot", []byte("v")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	blocked := tcx.Begin(ctx, TxnOptions{})
	done := make(chan error, 1)
	go func() {
		_, _, err := blocked.Read("t", "hot")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // enqueue behind the X lock
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled lock wait did not return")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled read took %v", el)
	}
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("read error %v does not carry ErrCancelled + context.Canceled", err)
	}
	if got := len(tcx.Locks().Held(blocked.ID())); got != 0 {
		t.Fatalf("cancelled transaction still holds %d locks", got)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPerTxnLockTimeout: TxnOptions.LockTimeout overrides the TC default
// for one transaction and surfaces the typed ErrLockTimeout.
func TestPerTxnLockTimeout(t *testing.T) {
	tcx, _ := newPair(t, Config{}) // no TC-level timeout: default is wait-forever
	holder := tcx.Begin(context.Background(), TxnOptions{})
	if err := holder.Upsert("t", "hot", []byte("v")); err != nil {
		t.Fatal(err)
	}
	bounded := tcx.Begin(context.Background(), TxnOptions{LockTimeout: 30 * time.Millisecond})
	start := time.Now()
	_, _, err := bounded.Read("t", "hot")
	if !errors.Is(err, base.ErrLockTimeout) || !errors.Is(err, lockmgr.ErrTimeout) {
		t.Fatalf("want lock timeout, got %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond || el > 2*time.Second {
		t.Fatalf("bounded wait took %v", el)
	}
	if !base.IsTransient(err) {
		t.Fatal("lock timeout must classify as transient")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyTxn: writes inside a ReadOnly transaction fail typed and
// mutate nothing; reads proceed normally.
func TestReadOnlyTxn(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	err := tcx.RunTxn(context.Background(), TxnOptions{ReadOnly: true}, func(x *Txn) error {
		if v, ok, err := x.Read("t", "k"); err != nil || !ok || string(v) != "v" {
			t.Fatalf("read in read-only txn: %q %v %v", v, ok, err)
		}
		return x.Upsert("t", "k", []byte("scribble"))
	})
	if !errors.Is(err, base.ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if base.IsTransient(err) {
		t.Fatal("read-only violation must not be transient")
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		v, _, err := x.Read("t", "k")
		if err != nil {
			return err
		}
		if string(v) != "v" {
			t.Fatalf("read-only txn mutated state: %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
