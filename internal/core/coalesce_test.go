package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// TestCoalescedAcksOnMisbehavingNetwork is the correctness oracle for ack
// coalescing: increment transactions over a lossy, duplicating,
// jittery network with Config.CoalesceAcks on, checked against the serial
// oracle. Coalescing must be invisible to the protocol — losing or
// duplicating a whole msgReplyBatch is exactly a lost or duplicated set of
// member acks, which the resend loop and DC idempotence already absorb. A
// lost update here would mean a commit's ack barrier was satisfied by a
// reply the batcher mangled; a wedged run would mean a barrier waited on
// an ack a batch dropped. The test also requires the batcher to have
// actually flushed batches and the TC's ack barrier to end drained.
func TestCoalescedAcksOnMisbehavingNetwork(t *testing.T) {
	txns := 25 * chaosIters(t, 1)
	const (
		keys    = 8
		workers = 4
	)
	dep, err := New(Options{
		TCs: 1, DCs: 2, Tables: []string{"kv"},
		Placement: placement.MustParse("kv: dc=mod(2)"),
		TCConfig: func(int) tc.Config {
			// Commit blocks on the barrier until every shipped op is acked.
			return tc.Config{LockTimeout: 5 * time.Second}
		},
		Network: &wire.Config{
			Delay:        20 * time.Microsecond,
			Jitter:       100 * time.Microsecond,
			LossProb:     0.05,
			DupProb:      0.05,
			ResendAfter:  time.Millisecond,
			Seed:         11,
			CoalesceAcks: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	tcx := dep.TCs[0]

	key := func(i int) string { return fmt.Sprintf("c%d", i) }
	if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < keys; i++ {
			if err := x.Insert("kv", key(i), []byte("0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Each transaction increments two counters, locks acquired in sorted
	// key order (waits, not deadlocks — except same-key S->X upgrades).
	var committed [keys]int64
	var cmu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				a := (w + i) % keys
				b := (w*3 + i*5 + 1) % keys
				if a == b {
					b = (b + 1) % keys
				}
				if b < a {
					a, b = b, a
				}
				err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
					for _, k := range []int{a, b} {
						v, ok, err := x.Read("kv", key(k))
						if err != nil || !ok {
							return fmt.Errorf("read %s: %v %v", key(k), ok, err)
						}
						n, err := strconv.Atoi(string(v))
						if err != nil {
							return err
						}
						if err := x.Update("kv", key(k), []byte(strconv.Itoa(n+1))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					if errors.Is(err, lockmgr.ErrDeadlock) ||
						errors.Is(err, lockmgr.ErrTimeout) {
						continue // clean abort; the oracle doesn't count it
					}
					t.Errorf("txn failed: %v", err)
					return
				}
				cmu.Lock()
				committed[a]++
				committed[b]++
				cmu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// The committed state must match the serial oracle exactly.
	if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < keys; i++ {
			v, ok, err := x.Read("kv", key(i))
			if err != nil || !ok {
				return fmt.Errorf("final read %s: %v %v", key(i), ok, err)
			}
			got, _ := strconv.Atoi(string(v))
			if int64(got) != committed[i] {
				return fmt.Errorf("lost update on %s: counter %d, commits %d",
					key(i), got, committed[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Every shipped op was acked: the commit barrier must end drained.
	if d := tcx.AckBarrierDepth(); d != 0 {
		t.Fatalf("ack barrier still holds %d unacked ops after quiesce", d)
	}

	// The run must have exercised what it claims to: batches flushed
	// through the coalescer, and a network that actually misbehaved.
	// (Whether any batch held >1 reply is scheduling-dependent — the sim
	// delivers asynchronously — so only flushes are required.)
	var batches uint64
	for _, row := range dep.servers {
		for _, s := range row {
			if s == nil {
				continue
			}
			b, _ := s.AckStats()
			batches += b
		}
	}
	if batches == 0 {
		t.Fatal("ack coalescer never flushed a batch despite CoalesceAcks")
	}
	stats := dep.Net().Stats()
	if stats.Dropped == 0 && stats.Duplicated == 0 {
		t.Fatalf("network never misbehaved: %+v", stats)
	}
	if stats.Resends == 0 {
		t.Fatalf("no resends despite loss: %+v", stats)
	}
}
