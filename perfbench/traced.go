package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// stageTolerance bounds |sum of stage self times - RunTxn time| as a
// share of RunTxn time. Self times partition a well-nested span tree
// exactly, so a larger gap means spans overlap or escape their parent.
const stageTolerance = 0.02

// runTraced measures the per-layer metrics: the workload's fixed rate
// once untraced (the baseline for the tracing overhead), followed there
// by the capacity ladder, and once traced on a hand-assembled deployment
// whose TC:DC boundary is decorated, then the read-back oracle, DC
// restarts, and the E1 reference phase.
func runTraced(ctx context.Context, c runConfig) (*result, error) {
	w := c.w
	total := time.Duration(c.seconds * float64(time.Second))
	warm, fixedLen, ladderLen := total/20, total/4, total*2/5

	d, s, _, err := setup(ctx, c, nil, "base")
	if err != nil {
		return nil, err
	}
	l := &loader{d: d, s: s}
	l.phase(ctx, fixedRate, warm)
	baseline := l.phase(ctx, fixedRate, fixedLen)
	capacity, err := l.ladder(ctx, ladderLen/time.Duration(w.ladder.rungs))
	if err != nil {
		d.close()
		return nil, err
	}
	baseErr := s.readBack(ctx, d)
	d.close()
	if baseErr != nil {
		if !errors.Is(baseErr, errOracle) {
			return nil, baseErr
		}
		return &result{Attempted: baseline.attempted, Failed: baseline.failed()}, baseErr
	}

	tr := newTracer()
	d, s, _, err = setup(ctx, c, tr, "traced")
	if err != nil {
		return nil, err
	}
	defer d.close()
	l = &loader{d: d, s: s}
	l.phase(ctx, fixedRate, warm)
	att0 := s.attempts.Load()
	c0 := snapshot(d)
	tr.on.Store(true)
	traced := l.phase(ctx, fixedRate, fixedLen)
	tr.on.Store(false)
	delta := snapshot(d).sub(c0)
	attempts := s.attempts.Load() - att0
	oracleErr := s.readBack(ctx, d)
	var rt restartTimes
	if oracleErr == nil {
		rt, oracleErr = l.restart(ctx)
		if oracleErr != nil && !errors.Is(oracleErr, errOracle) {
			return nil, oracleErr
		}
	}
	e1, err := runE1(ctx, c.seed)
	if err != nil {
		return nil, err
	}

	a := analyze(tr.all())
	spanFile := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, c.seed))
	if err := tr.writeSpans(spanFile, a); err != nil {
		return nil, err
	}
	txns := float64(a.txns)
	per := func(n uint64) float64 { return float64(n) / txns }
	mean := func(name string) float64 { return us(a.dur[name]) / float64(max(a.cnt[name], 1)) }
	meanSelf := func(names ...string) float64 {
		var sum time.Duration
		n := 0
		for _, name := range names {
			sum += a.stageSelf[name]
			n += a.stageN[name]
		}
		return us(sum) / float64(max(n, 1))
	}

	var stageSum time.Duration
	fmt.Printf("  traced read/write transactions: %d (spans %d, unlinked DC spans %d), span file %s\n",
		a.txns, len(a.spans), a.orphans, spanFile)
	fmt.Println("  stage self time per read/write transaction:")
	for _, name := range []string{spanTxn, spanRead, spanUpsert, spanCommit, spanCall, spanPerform} {
		stageSum += a.stageSelf[name]
		fmt.Printf("    %-16s %10.2f us  (%d spans)\n", name, us(a.stageSelf[name])/txns, a.stageN[name])
	}
	stageErr := math.Abs(float64(stageSum-a.txnTotal)) / float64(a.txnTotal)
	fmt.Printf("    %-16s %10.2f us  vs RunTxn %.2f us: off by %.4f%% (tolerance %.1f%%)\n", "sum",
		us(stageSum)/txns, us(a.txnTotal)/txns, 100*stageErr, 100*stageTolerance)
	if stageErr > stageTolerance || a.txns == 0 {
		return nil, fmt.Errorf("stage self times do not add up to RunTxn: off by %.2f%%", 100*stageErr)
	}
	fmt.Printf("  E1: %d transactions per kernel\n", e1.n)

	okTxns := len(traced.lat[classTxn])
	res := &result{Correct: oracleErr == nil, Attempted: traced.attempted, Failed: traced.failed(),
		Metrics: map[string]metric{}}
	m := res.Metrics
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("tc.op_self_us", "us", meanSelf(spanRead, spanUpsert))
	set("tc.commit_us", "us", meanSelf(spanCommit))
	set("tc.ops_sent_per_txn", "count", per(delta.opsSent))
	set("lockmgr.acquired_per_txn", "count", per(delta.lockAcquired))
	set("lockmgr.wait_frac", "fraction", ratio(delta.lockWaited, delta.lockAcquired))
	set("lockmgr.deadlocks", "count", float64(delta.deadlocks))
	set("core.attempts_per_txn", "count", float64(attempts)/float64(max(okTxns, 1)))
	set("wal.forces_per_commit", "count", per(delta.tcForces))
	set("wal.noop_force_frac", "fraction", ratio(delta.tcNoop, delta.tcNoop+delta.tcForces))
	set("wal.bytes_per_txn", "B", per(delta.tcLogB))
	set("dclog.forces_per_txn", "count", per(delta.dcForces))
	set("wire.rtt_us", "us", mean(spanCall))
	set("wire.self_us", "us", us(a.selfAll[spanCall])/float64(max(a.cnt[spanCall], 1)))
	set("wire.calls_per_txn", "count", float64(a.stageN[spanCall])/txns)
	set("wire.resends_per_txn", "count", per(delta.resends))
	set("wire.overloads_per_txn", "count", per(delta.overloads))
	set("dc.perform_us", "us", mean(spanPerform))
	set("dc.busy_frac", "fraction",
		a.dur[spanPerform].Seconds()/(fixedLen.Seconds()*float64(runtime.GOMAXPROCS(0))))
	set("dc.read_us", "us", us(a.dcRead.sum)/float64(max(a.dcRead.n, 1)))
	set("dc.snapshot_wait_frac", "fraction", ratio(delta.snapWaits, delta.snapReads))
	set("dc.dup_skips", "count", float64(delta.dupSkips))
	set("buffer.hit_ratio", "fraction", ratio(delta.hits, delta.hits+delta.misses))
	set("buffer.evictions_per_txn", "count", per(delta.evictions))
	set("buffer.flushes_per_txn", "count", per(delta.flushes))
	set("storage.page_writes_per_txn", "count", per(delta.pageWrites))
	set("storage.bytes_written_per_txn", "B", per(delta.pageBytes))
	set("capacity_tps", "1/s", capacity)
	set("restart_s", "s", rt.total.Seconds())
	set("restart.dc_recover_s", "s", rt.dcRecover.Seconds())
	set("restart.redo_s", "s", rt.redo.Seconds())
	set("tc.redo_ops", "count", rt.redoOps)
	set("e1.monolith_txn_us", "us", us(e1.mono))
	set("e1.unbundled_txn_us", "us", us(e1.unbundled))
	set("e1.overhead_x", "ratio", float64(e1.unbundled)/float64(e1.mono))
	set("gen.late_max_ms", "ms", ms(traced.lateMax))
	set("trace.overhead_frac", "fraction",
		ms(quantile(traced.lat[classTxn], 0.5))/ms(quantile(baseline.lat[classTxn], 0.5))-1)
	set("trace.stage_sum_err_frac", "fraction", stageErr)
	set("trace.txn_us", "us", us(a.txnTotal)/txns)
	set("failed_frac", "fraction", traced.failedFrac())
	// The tails, from the untraced phase: reported here, not gated end to
	// end, because on a shared machine they follow other tenants' load.
	tail := func(class int, q float64) float64 { return ms(baseline.subQuantile(class, q)) }
	set("untraced.txn_p90_ms", "ms", tail(classTxn, 0.9))
	set("untraced.txn_p99_ms", "ms", tail(classTxn, 0.99))
	set("untraced.read_p90_ms", "ms", tail(classRead, 0.9))
	set("untraced.read_p99_ms", "ms", tail(classRead, 0.99))
	return res, oracleErr
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
