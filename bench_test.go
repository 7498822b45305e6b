// Benchmarks regenerating every experiment table (DESIGN.md §4):
//
//	go test -bench=. -benchmem
//
// The per-transaction benchmarks (BenchmarkE1*) are conventional Go
// benchmarks; the table benchmarks (BenchmarkE2..E8, F1, F2) run one full
// experiment per iteration at reduced scale and report the headline
// metric via b.ReportMetric. cmd/unbundled-bench prints the full tables.
package unbundled_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/experiments"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
	"github.com/cidr09/unbundled/internal/workload"
)

// --- E1: per-transaction comparison, monolithic vs unbundled -----------

func kvTxnBench(b *testing.B, run func(i int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1TxnMonolith(b *testing.B) {
	e, err := monolith.New(monolith.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.CreateTable("kv"); err != nil {
		b.Fatal(err)
	}
	g := workload.KV{Keys: 4096, ReadFrac: 0.5, OpsPerTxn: 4, Seed: 1}.NewGen(0)
	kvTxnBench(b, func(i int) error {
		return e.RunTxn(func(x *monolith.Txn) error {
			for j := 0; j < g.OpsPerTxn(); j++ {
				if g.IsRead() {
					if _, _, err := x.Read("kv", g.Key()); err != nil {
						return err
					}
					continue
				}
				if err := x.Upsert("kv", g.Key(), g.Value()); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func unbundledTxnBench(b *testing.B, net *wire.Config) {
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"}, Network: net})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	g := workload.KV{Keys: 4096, ReadFrac: 0.5, OpsPerTxn: 4, Seed: 1}.NewGen(0)
	client := dep.Client()
	kvTxnBench(b, func(i int) error {
		return client.RunTxn(context.Background(), core.TxnOptions{}, func(x *tc.Txn) error {
			for j := 0; j < g.OpsPerTxn(); j++ {
				if g.IsRead() {
					if _, _, err := x.Read("kv", g.Key()); err != nil {
						return err
					}
					continue
				}
				if err := x.Upsert("kv", g.Key(), g.Value()); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func BenchmarkE1TxnUnbundledDirect(b *testing.B) { unbundledTxnBench(b, nil) }
func BenchmarkE1TxnUnbundledWire(b *testing.B)   { unbundledTxnBench(b, &wire.Config{}) }

// BenchmarkE1TxnUnbundledWireDelay measures multi-op write transactions
// over a wire with real propagation delay. Transactions are versioned so
// upserts skip the existence pre-check: no op waits for a reply before
// commit, where the writes ship as one batch and the commit-versions
// operations as a second.
func BenchmarkE1TxnUnbundledWireDelay(b *testing.B) {
	dep, err := core.New(core.Options{
		TCs: 1, DCs: 1, Tables: []string{"kv"},
		Network: &wire.Config{Delay: 200 * time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	g := workload.KV{Keys: 4096, ReadFrac: 0, OpsPerTxn: 4, Seed: 1}.NewGen(0)
	client := dep.Client()
	kvTxnBench(b, func(i int) error {
		return client.RunTxn(context.Background(), core.TxnOptions{Versioned: true}, func(x *tc.Txn) error {
			for j := 0; j < g.OpsPerTxn(); j++ {
				if err := x.Upsert("kv", g.Key(), g.Value()); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// BenchmarkE1TxnMultiTCPartitioned is the §6.1 scale-out topology: two
// TCs with update ownership partitioned by key parity (owner=mod(2))
// over two DCs, transactions routed to their owner by write intent
// (RunTxnAt) and ownership enforced by the TCs. The benchcheck gate keeps
// the partitioned topology's per-transaction latency honest next to the
// single-TC E1 variants.
func BenchmarkE1TxnMultiTCPartitioned(b *testing.B) {
	dep, err := core.New(core.Options{TCs: 2, DCs: 2,
		Placement: placement.MustParse("kv: dc=hash(2) owner=mod(2)")})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	g := workload.KV{Keys: 4096, ReadFrac: 0.5, OpsPerTxn: 4, Seed: 1}.NewGen(0)
	client := dep.Client()
	// Partition p owns the keys with even/odd index: 2i+p has owner p+1.
	key := func(part int) string { return workload.KVKey(2*g.Rand().Intn(2048) + part) }
	kvTxnBench(b, func(i int) error {
		part := i % 2
		return client.RunTxnAt(context.Background(), "kv", workload.KVKey(part), core.TxnOptions{}, func(x *tc.Txn) error {
			for j := 0; j < g.OpsPerTxn(); j++ {
				if g.IsRead() {
					if _, _, err := x.Read("kv", key(part)); err != nil {
						return err
					}
					continue
				}
				if err := x.Upsert("kv", key(part), g.Value()); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// --- E9: locked vs snapshot reads under write contention ---------------

// benchE9Reads measures one multi-key read-only transaction against a hot
// set that independent writers keep X-locked (one versioned writer per
// key, commit force 2ms), alongside a small pool of identical unmeasured
// readers — the mixed read/write population every key's lock queue sees
// in a real deployment. The locked mode (SnapshotLocked) pays a lock
// wait at every key, convoying with writers and other readers; the
// default snapshot mode waits once for the safe timestamp and reads
// lock-free at the DCs. cmd/benchcheck gates the ratio between the two
// (BENCH_BASELINE.json "ratios"): snapshot reads must stay >= 3x
// locked-read throughput.
func benchE9Reads(b *testing.B, opts core.TxnOptions) {
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		TCConfig: func(int) tc.Config { return tc.Config{ForceDelay: 2 * time.Millisecond} }})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	const hot = 16
	const bgReaders = 4
	hotKey := func(k int) string { return fmt.Sprintf("hot%d", k) }
	write := func(k, round int) error {
		return client.RunTxn(ctx, core.TxnOptions{Versioned: true}, func(x *tc.Txn) error {
			return x.Upsert("kv", hotKey(k), []byte(fmt.Sprintf("v%d", round)))
		})
	}
	readAll := func() error {
		return client.RunTxn(ctx, opts, func(x *tc.Txn) error {
			for k := 0; k < hot; k++ {
				if _, _, err := x.Read("kv", hotKey(k)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for k := 0; k < hot; k++ {
		if err := write(k, 0); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var rounds atomic.Uint64
	for w := 0; w < hot; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for r := 1; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				if write(w, r) == nil {
					rounds.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < bgReaders; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = readAll()
			}
		}()
	}
	// Measure only the steady state: wait until the writers have pushed a
	// couple of contending rounds through commit.
	for rounds.Load() < 2*hot {
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := readAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	for w := 0; w < hot+bgReaders; w++ {
		<-done
	}
}

func BenchmarkE9SnapshotReadContention(b *testing.B) {
	b.Run("locked", func(b *testing.B) {
		benchE9Reads(b, core.TxnOptions{ReadOnly: true, Snapshot: core.SnapshotLocked})
	})
	b.Run("snapshot", func(b *testing.B) {
		benchE9Reads(b, core.TxnOptions{ReadOnly: true})
	})
}

// --- open-loop throughput: the server runtime ---------------------------

// benchThroughput runs one open-loop TCP throughput measurement per
// iteration (experiments.ThroughputRun: one DC on loopback, two TC
// frontends, a fixed arrival schedule) and reports completed txn/s plus
// the p99 latency against that schedule. CI runs it with -benchtime=1x
// and cmd/benchcheck gates it against its floor.
func benchThroughput(b *testing.B, name string) {
	o := experiments.ThroughputOptions{
		Rate: 4000, Clients: 64,
		Duration: 2 * time.Second, Warmup: 300 * time.Millisecond,
	}
	var tps, p99ms float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.ThroughputRun(name, o, "")
		tps += res.Throughput()
		p99ms += float64(res.Quantile(0.99)) / float64(time.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(tps/float64(b.N), "txn/s")
	b.ReportMetric(p99ms/float64(b.N), "p99-ms")
}

func BenchmarkThroughputOpenLoop(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		benchThroughput(b, "sharded+coalesced")
	})
}

// --- table experiments, one per figure/claim ---------------------------

func tableBench(b *testing.B, run func(experiments.Scale)) {
	s := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(s)
	}
}

func BenchmarkE2AbLSNSpace(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E2(s) })
}

func BenchmarkE3PageSync(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E3(s) })
}

func BenchmarkE4RangeLocking(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E4(s) })
}

func BenchmarkE5SMORecovery(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E5(s) })
}

func BenchmarkE6PartialFailure(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E6(s) })
}

func BenchmarkE7MultiTC(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E7(s) })
}

func BenchmarkE8Scaling(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.E8(s) })
}

func BenchmarkFig1Architecture(b *testing.B) {
	tableBench(b, func(s experiments.Scale) { _ = experiments.F1(s) })
}

// --- Figure 2 / §6.3: per-workload movie-site benchmarks ---------------

type movieEnv struct {
	client *core.Client
	p      workload.MoviePlacement
	reader core.TxnOptions
}

// ownerOpts hints user u's partition as write intent: the client resolves
// the owning TC from the placement (no hand-computed pin).
func (e *movieEnv) ownerOpts(u int, versioned bool) core.TxnOptions {
	return core.TxnOptions{
		WriteSet:  map[string][]string{workload.TableUsers: {workload.UserKey(u)}},
		Versioned: versioned,
	}
}

func newMovieEnv(b *testing.B) *movieEnv {
	b.Helper()
	p := workload.MoviePlacement{MovieDCs: 2, UserDCs: 1, Movies: 200, Users: 400}
	dep, err := core.New(core.Options{TCs: 3, DCs: 3, Placement: p.Placement(2)})
	if err != nil {
		b.Fatal(err)
	}
	client := dep.Client()
	if err := client.RunTxn(context.Background(), core.TxnOptions{TC: 1}, func(x *tc.Txn) error {
		for m := 0; m < p.Movies; m++ {
			if err := x.Upsert(workload.TableMovies, workload.MovieKey(m), []byte("m")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for u := 0; u < p.Users; u++ {
		if err := client.RunTxn(context.Background(), newMovieEnvOwner(p, u), func(x *tc.Txn) error {
			return x.Upsert(workload.TableUsers, workload.UserKey(u), []byte("p"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(dep.Close)
	return &movieEnv{client: client, p: p, reader: core.TxnOptions{TC: 3, ReadOnly: true}}
}

func newMovieEnvOwner(p workload.MoviePlacement, u int) core.TxnOptions {
	return core.TxnOptions{
		WriteSet:  map[string][]string{workload.TableUsers: {workload.UserKey(u)}},
		Versioned: true,
	}
}

func BenchmarkFig2MovieW1(b *testing.B) {
	env := newMovieEnv(b)
	// Seed some reviews to read.
	for i := 0; i < 500; i++ {
		u, m := i%env.p.Users, i%env.p.Movies
		if err := env.client.RunTxn(context.Background(), env.ownerOpts(u, true), func(x *tc.Txn) error {
			return x.Upsert(workload.TableReviews, workload.ReviewKey(m, u), []byte("r"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix := workload.MovieKey(i%env.p.Movies) + "/"
		if err := env.client.RunTxn(context.Background(), env.reader, func(x *tc.Txn) error {
			_, _, err := x.ScanCommitted(workload.TableReviews, prefix, prefix+"~", 0)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MovieW2(b *testing.B) {
	env := newMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, m := i%env.p.Users, (i*7)%env.p.Movies
		review := []byte(fmt.Sprintf("review-%d", i))
		if err := env.client.RunTxn(context.Background(), env.ownerOpts(u, true), func(x *tc.Txn) error {
			if err := x.Upsert(workload.TableReviews, workload.ReviewKey(m, u), review); err != nil {
				return err
			}
			return x.Upsert(workload.TableMyReviews, workload.MyReviewKey(u, m), review)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MovieW3(b *testing.B) {
	env := newMovieEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % env.p.Users
		if err := env.client.RunTxn(context.Background(), env.ownerOpts(u, true), func(x *tc.Txn) error {
			return x.Upsert(workload.TableUsers, workload.UserKey(u),
				[]byte(fmt.Sprintf("profile-%d", i)))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MovieW4(b *testing.B) {
	env := newMovieEnv(b)
	for i := 0; i < 500; i++ {
		u, m := i%env.p.Users, i%env.p.Movies
		if err := env.client.RunTxn(context.Background(), env.ownerOpts(u, true), func(x *tc.Txn) error {
			return x.Upsert(workload.TableMyReviews, workload.MyReviewKey(u, m), []byte("r"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % env.p.Users
		prefix := workload.UserKey(u) + "/"
		if err := env.client.RunTxn(context.Background(), env.ownerOpts(u, false), func(x *tc.Txn) error {
			_, _, err := x.Scan(workload.TableMyReviews, prefix, prefix+"~", 0)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- recovery micro-benchmarks ------------------------------------------

func BenchmarkDCCrashRecovery(b *testing.B) {
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		DCConfig: func(int) dc.Config { return dc.Config{PageBytes: 1024} }})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()
	for i := 0; i < 2000; i++ {
		if err := client.RunTxn(context.Background(), core.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", workload.KVKey(i), []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.CrashDC(0)
		if err := dep.RecoverDC(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCCrashRecovery(b *testing.B) {
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"}})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()
	for i := 0; i < 2000; i++ {
		if err := client.RunTxn(context.Background(), core.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", workload.KVKey(i), []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep.CrashTC(0)
		if err := dep.RecoverTC(0); err != nil {
			b.Fatal(err)
		}
	}
}
