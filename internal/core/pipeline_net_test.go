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

// TestConcurrentTxnsOnMisbehavingNetwork runs concurrent increment
// transactions over a lossy, duplicating, reordering network and checks
// the committed state against the serial oracle: every key's final counter
// must equal the number of successful increments. Any lost update would
// prove a transaction released its locks before its shipped writes were
// applied (a reader of the stale value would then commit over the top of
// them).
func TestConcurrentTxnsOnMisbehavingNetwork(t *testing.T) {
	// The per-worker transaction count scales with CHAOS_ITERS so the
	// nightly chaos job soaks the oracle far longer than a PR run.
	txns := 25 * chaosIters(t, 1)
	// The two subtests keep their historical names. pipeline=false ships
	// every write to its DC before the transaction's next operation (an
	// unlocked read of the key just written drains the outgoing list and
	// must see the new value at the DC); pipeline=true leaves the writes
	// queued until Commit ships them.
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipelined), func(t *testing.T) {
			const (
				keys    = 8
				workers = 4
			)
			dep, err := New(Options{
				TCs: 1, DCs: 2, Tables: []string{"kv"},
				Placement: placement.MustParse("kv: dc=mod(2)"),
				TCConfig: func(int) tc.Config {
					return tc.Config{LockTimeout: 5 * time.Second}
				},
				Network: &wire.Config{
					Delay:       20 * time.Microsecond,
					Jitter:      100 * time.Microsecond,
					LossProb:    0.05,
					DupProb:     0.05,
					ResendAfter: time.Millisecond,
					Seed:        7,
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

			// Each transaction increments two counters, always acquiring
			// locks in sorted key order (no deadlocks, only waits).
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
								want := strconv.Itoa(n + 1)
								if err := x.Update("kv", key(k), []byte(want)); err != nil {
									return err
								}
								if pipelined {
									continue
								}
								got, ok, err := x.ReadDirty("kv", key(k))
								if err != nil {
									return err
								}
								if !ok || string(got) != want {
									return fmt.Errorf("dirty read %s after update: %q %v, want %q",
										key(k), got, ok, want)
								}
							}
							return nil
						})
						if err != nil {
							// Read-then-update of the same key is an S->X
							// upgrade; two txns upgrading the same key
							// deadlock legitimately, and a txn can lose
							// that race past RunTxn's retry budget. The
							// abort is clean (nothing committed), so the
							// oracle simply doesn't count it.
							if errors.Is(err, lockmgr.ErrDeadlock) ||
								errors.Is(err, lockmgr.ErrTimeout) {
								continue
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

			// The network must actually have misbehaved for this to mean
			// anything.
			stats := dep.Net().Stats()
			if stats.Dropped == 0 && stats.Duplicated == 0 {
				t.Fatalf("network never misbehaved: %+v", stats)
			}
			if stats.Resends == 0 {
				t.Fatalf("no resends despite loss: %+v", stats)
			}
		})
	}
}
