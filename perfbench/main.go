// Command perfbench is the repository's benchmark: open-loop load on a
// TC/DC deployment under its production defaults, with exact latency
// quantiles, a capacity ladder, DC restarts, correctness oracles, and a
// separate traced run that splits a transaction's latency by layer.
// WORKLOADS.md describes the workloads, metrics and oracles.
//
//	perfbench --workload tcp-write --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end ones untraced, per-layer
// ones with --trace 1). A failed oracle prints correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/cidr09/unbundled/internal/core"
)

var workloads = []*workload{
	{
		name: "tcp-write", tcp: true, tcs: 2, groups: 512, value: 64,
		readFrac: 0.4, readGroups: 1, readPolicy: core.SnapshotLocked,
		ladder: grid{from: 3750, step: 250, rungs: 10},
		slo:    100 * time.Millisecond,
	},
	{
		name: "read-mix", tcs: 1, groups: 4096, value: 512,
		readFrac: 0.5, readGroups: 2, theta: 0.99, transfer: true,
		ladder: grid{from: 5000, step: 250, rungs: 10},
		slo:    50 * time.Millisecond,
	},
}

const (
	// fixedRate is the offered rate (arrivals/s) of the fixed-rate phase.
	// It sits off multiples of 1000/s: evenly spaced arrivals at 1000/s
	// lock onto the TCs' 1 ms watermark ticker, which shifts every
	// snapshot read's wait for the safe timestamp by a phase that differs
	// from run to run (read_p50_ms was 0.91 to 1.36 ms across four seeds).
	fixedRate = 900.0
	// Quantiles are medians over sub-windows this long.
	subWindow  = 3300 * time.Millisecond
	executors  = 32
	setups     = 5    // deployments built per untraced run; setup_s is their median
	restarts   = 10   // DC restarts per run; restart figures are their trimmed means
	minSamples = 1000 // per class: p99 needs ten samples beyond it
	extraRungs = 16   // rungs the ladder may add past its grid
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	workdir string
}

func main() {
	name := flag.String("workload", "", "workload: tcp-write or read-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the span file")
	flag.Parse()
	var w *workload
	for _, x := range workloads {
		if x.name == *name {
			w = x
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, workdir: *workdir}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d executors=%d\n",
		w.name, cfg.seed, cfg.seconds, *trace, runtime.GOMAXPROCS(0), executors)
	ctx := context.Background()
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err != nil && !errors.Is(err, errOracle) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Println("ORACLE FAILED:", err)
	}
	printMetrics(res)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

var started = time.Now()

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// setup builds a deployment and preloads it. It starts from a collected
// heap, so one setup's garbage is not charged to the next.
func setup(ctx context.Context, c runConfig, tr *tracer, tag string) (*deployment, *state, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	logf("setup %s", tag)
	d, err := build(ctx, c.w, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	s := newState(c.w, c.seed)
	if err := s.preload(ctx, d); err != nil {
		d.close()
		return nil, nil, 0, err
	}
	return d, s, time.Since(start), nil
}

// loader runs open-loop phases against one deployment, numbering
// arrivals globally so no two phases repeat an input.
type loader struct {
	d    *deployment
	s    *state
	next int64
}

func (l *loader) phase(ctx context.Context, rate float64, window time.Duration) *phaseResult {
	logf("phase %.0f/s for %v", rate, window)
	subs := max(3, int(window/subWindow))
	r := runOpenLoop(ctx, rate, window, l.d.w.slo, executors, subs, l.next, l.s.arrival(l.d))
	l.next += int64(r.attempted)
	return r
}

// restart crashes and restarts the DC restarts times, each after a
// checkpoint and a short burst of traffic, so every restart replays a
// like amount of redo. After each one the read-back oracle checks that
// every acknowledged commit survived, before later writes could cover a
// lost one. It returns the trimmed mean of each restart figure: a mean,
// because over TCP single restart times fall into two groups (likely
// whether the TCs' first redial, 10 ms after the crash, finds the DC
// listening again) and a median jumps between them; trimmed, so one
// stall does not move it.
func (l *loader) restart(ctx context.Context) (restartTimes, error) {
	var total, dcRecover, redo, ops []float64
	for i := 0; i < restarts; i++ {
		if err := l.d.checkpoint(ctx); err != nil {
			return restartTimes{}, err
		}
		if r := l.phase(ctx, fixedRate, 250*time.Millisecond); r.firstErr != nil {
			return restartTimes{}, fmt.Errorf("pre-crash burst: %w", r.firstErr)
		}
		seq := l.next
		l.next++
		logf("restart at seq %d", seq)
		probe := func(ctx context.Context) error {
			r := newRng(l.s.seed, seq)
			if l.s.w.transfer {
				return l.s.transferTxn(ctx, l.d, r, 0)
			}
			return l.s.upsertTxn(ctx, l.d, r, 0, seq)
		}
		runtime.GC() // each crash starts from a collected heap
		rt, err := l.d.restartDC(ctx, probe)
		if err != nil {
			return restartTimes{}, err
		}
		fmt.Printf("  restart %d: %.4f s to first commit, DC recovery %.4f s, redo %.4f s, %d redo ops\n",
			i+1, rt.total.Seconds(), rt.dcRecover.Seconds(), rt.redo.Seconds(), int(rt.redoOps))
		if err := l.s.readBack(ctx, l.d); err != nil {
			return restartTimes{}, fmt.Errorf("after restart %d: %w", i+1, err)
		}
		total = append(total, rt.total.Seconds())
		dcRecover = append(dcRecover, rt.dcRecover.Seconds())
		redo = append(redo, rt.redo.Seconds())
		ops = append(ops, rt.redoOps)
	}
	sec := func(xs []float64) time.Duration { return time.Duration(trimmedMean(xs) * float64(time.Second)) }
	return restartTimes{total: sec(total), dcRecover: sec(dcRecover), redo: sec(redo),
		redoOps: trimmedMean(ops)}, nil
}

// ladder measures capacity on the workload's rate grid, lowest rate
// first, offering each rung once. A rung's load index is max(p99 / SLO,
// failed share / 1%), where p99 is the median of the rung's sub-window
// p99s and failed counts arrivals unfinished at the window close, so a
// growing backlog misses too. Its hold share is 1 at an index of 0.5 or
// less, 0 at 1.5 or more, and linear between, so 1/2 at the bound. Near
// capacity a rung may collapse and the next, at a higher rate, hold, so
// the first rung that misses is a noisy capacity. Capacity is instead
// the Spearman-Kärber estimate of the rate
// where the hold share crosses 1/2: the grid's first rate less half a
// step, plus a step per unit of hold share summed over the rungs. The
// ladder goes on past its grid until three rungs in a row score 0; rungs
// above those count 0. If no rung scores, capacity extrapolates from the
// first: its rate over its index.
func (l *loader) ladder(ctx context.Context, rung time.Duration) (float64, error) {
	w := l.d.w
	g := w.ladder
	held, firstIndex := 0.0, 0.0
	attempted, failed := 0, 0
	i := 0
	for zeros := 0; zeros < 3; i++ {
		if i == g.rungs+extraRungs {
			return 0, fmt.Errorf("ladder: rungs still held at %.0f/s", g.from+float64(i-1)*g.step)
		}
		rate := g.from + float64(i)*g.step
		c0 := snapshot(l.d)
		r := l.phase(ctx, rate, rung)
		c := snapshot(l.d).sub(c0)
		attempted += r.attempted
		failed += r.failed()
		p99 := r.subQuantile(classTxn, 0.99)
		index := max(float64(p99)/float64(w.slo), r.failedFrac()/0.01)
		h := min(1, max(0, 1.5-index))
		fmt.Printf("  rung %6.0f/s: p99 %8.3f ms, failed %d/%d, load index %.3f, hold %.3f; %d resends, %d overloads, %d lock waits\n",
			rate, ms(p99), r.failed(), r.attempted, index, h, c.resends, c.overloads, c.lockWaited)
		if i == 0 {
			firstIndex = index
		}
		held += h
		if h == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	fmt.Printf("  ladder: %d rungs, %d arrivals, %d failed or unfinished\n", i, attempted, failed)
	if held == 0 {
		return g.from / firstIndex, nil
	}
	return g.from - g.step/2 + g.step*held, nil
}

func runEndToEnd(ctx context.Context, c runConfig) (*result, error) {
	w := c.w
	var setupTimes []float64
	var d *deployment
	var s *state
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		var dur time.Duration
		var err error
		if d, s, dur, err = setup(ctx, c, nil, fmt.Sprint(i)); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, dur.Seconds())
	}
	defer d.close()
	total := time.Duration(c.seconds * float64(time.Second))
	l := &loader{d: d, s: s}
	l.phase(ctx, fixedRate, total/20) // warm-up, unreported
	c0 := snapshot(d)
	fixed := l.phase(ctx, fixedRate, total*17/20)
	c1 := snapshot(d)
	logf("read back")
	oracleErr := s.readBack(ctx, d)
	if oracleErr == nil {
		_, oracleErr = l.restart(ctx)
	}
	if oracleErr != nil && !errors.Is(oracleErr, errOracle) {
		return nil, oracleErr
	}
	res := &result{Correct: oracleErr == nil, Attempted: fixed.attempted, Failed: fixed.failed(),
		Metrics: map[string]metric{}}
	m := res.Metrics
	txn := fixed.lat[classTxn]
	fmt.Printf("  fixed rate %.0f/s: %d attempted, %d ok, %d errors, %d unfinished; generator late max %.3f ms\n",
		fixedRate, fixed.attempted, fixed.ok, fixed.errors, fixed.unfinished, ms(fixed.lateMax))
	if fixed.firstErr != nil {
		fmt.Println("  first error:", fixed.firstErr)
	}
	fewest := math.MaxInt
	for c, name := range []string{"read/write", "read-only"} {
		all := fixed.lat[c]
		p := supportedPercentile(len(all))
		fmt.Printf("  %-10s %6d samples: p50 %.3f ms, p99 %.3f ms, p%.4g %.3f ms (highest with 10 samples beyond)\n",
			name, len(all), ms(quantile(all, 0.5)), ms(quantile(all, 0.99)), p, ms(quantile(all, p/100)))
		fmt.Printf("  %-10s %d sub-windows, p50/p90/p99 each:", name, len(fixed.sub[c]))
		for _, l := range fixed.sub[c] {
			fmt.Printf(" %.3f/%.3f/%.3f", ms(quantile(l, 0.5)), ms(quantile(l, 0.9)), ms(quantile(l, 0.99)))
			fewest = min(fewest, len(l))
		}
		fmt.Println(" ms")
	}
	if oracleErr == nil && fewest < minSamples {
		return nil, fmt.Errorf("too few samples for p99: a sub-window held %d, want %d", fewest, minSamples)
	}
	sub := func(class int, q float64) float64 { return ms(fixed.subQuantile(class, q)) }
	delta := c1.sub(c0)
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["txn_p50_ms"] = metric{sub(classTxn, 0.5), "ms"}
	m["read_p50_ms"] = metric{sub(classRead, 0.5), "ms"}
	// The tails are printed, not gated: on a shared machine they follow
	// other tenants' load (see WORKLOADS.md).
	fmt.Printf("  not gated: txn_p90_ms %.4f, txn_p99_ms %.4f, read_p90_ms %.4f, read_p99_ms %.4f ms\n",
		sub(classTxn, 0.9), sub(classTxn, 0.99), sub(classRead, 0.9), sub(classRead, 0.99))
	m["ok_frac"] = metric{1 - fixed.failedFrac(), "fraction"}
	m["write_amp"] = metric{delta.writeAmp(w, len(txn)), "ratio"}
	return res, oracleErr
}
