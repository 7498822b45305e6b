package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop driver. Arrival i of a phase is due at start + i/rate
// whatever the system is doing; a free executor claims the next arrival,
// sleeps until it is due, and runs it. Latency is timed from the due
// time, so a stall also charges every arrival queued behind it. Every
// sample is kept, so quantiles are exact order statistics. The window
// closes grace after the last due time: arrivals that have not finished
// by then count as failed, never as silently dropped.

// Arrival classes: a read/write transaction or a read-only one.
const (
	classTxn = iota
	classRead
	numClasses
)

// arrivalFunc runs global arrival seq and reports its class and outcome.
type arrivalFunc func(ctx context.Context, seq int64) (class int, err error)

type phaseResult struct {
	attempted  int
	ok         int
	errors     int
	unfinished int
	lat        [numClasses][]time.Duration // successful arrivals, sorted
	// sub holds the same samples split by due time into equal
	// sub-windows, each sorted.
	sub      [numClasses][][]time.Duration
	lateMax  time.Duration // worst executor wake-up lateness
	firstErr error
}

type sample struct {
	i   int // arrival index within the phase
	lat time.Duration
}

func (r *phaseResult) failed() int { return r.attempted - r.ok }

func (r *phaseResult) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed()) / float64(r.attempted)
}

// runOpenLoop offers rate arrivals per second for window, numbering them
// from firstSeq, on a fixed pool of executors. It returns once every
// executor has stopped; executors stop claiming at the window close, and
// an arrival already running then is waited for but counted unfinished.
// Samples are also split into subs sub-windows by due time.
func runOpenLoop(ctx context.Context, rate float64, window, grace time.Duration, executors, subs int,
	firstSeq int64, fn arrivalFunc) *phaseResult {
	n := int(math.Ceil(window.Seconds() * rate))
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	closeAt := start.Add(time.Duration(float64(n-1)*interval) + grace)
	type execResult struct {
		lat      [numClasses][]sample
		ok, errs int
		lateMax  time.Duration
		firstErr error
	}
	results := make([]execResult, executors)
	var next atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < executors; e++ {
		wg.Add(1)
		go func(res *execResult) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					if late := time.Since(due); late > res.lateMax {
						res.lateMax = late
					}
				}
				if time.Now().After(closeAt) {
					return // the rest of the schedule is unfinished
				}
				class, err := fn(ctx, firstSeq+i)
				end := time.Now()
				if end.After(closeAt) {
					continue
				}
				if err != nil {
					if res.firstErr == nil {
						res.firstErr = err
					}
					res.errs++
					continue
				}
				res.ok++
				res.lat[class] = append(res.lat[class], sample{int(i), end.Sub(due)})
			}
		}(&results[e])
	}
	wg.Wait()
	out := &phaseResult{attempted: n}
	for i := range results {
		r := &results[i]
		out.ok += r.ok
		out.errors += r.errs
		if r.lateMax > out.lateMax {
			out.lateMax = r.lateMax
		}
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		for c := range r.lat {
			for _, sm := range r.lat[c] {
				out.lat[c] = append(out.lat[c], sm.lat)
				if out.sub[c] == nil {
					out.sub[c] = make([][]time.Duration, subs)
				}
				k := sm.i * subs / n
				out.sub[c][k] = append(out.sub[c][k], sm.lat)
			}
		}
	}
	out.unfinished = n - out.ok - out.errors
	for c := range out.lat {
		sortDurations(out.lat[c])
		for _, l := range out.sub[c] {
			sortDurations(l)
		}
	}
	return out
}

func sortDurations(l []time.Duration) { sort.Slice(l, func(a, b int) bool { return l[a] < l[b] }) }

// subQuantile is the median over sub-windows of each sub-window's
// q-quantile. A burst of interference on the shared machine moves one
// sub-window, not the median.
func (r *phaseResult) subQuantile(class int, q float64) time.Duration {
	var qs []float64
	for _, l := range r.sub[class] {
		qs = append(qs, float64(quantile(l, q)))
	}
	return time.Duration(median(qs))
}

// quantile returns the exact q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supportedPercentile is the highest percentile (in steps of a decade:
// 99, 99.9, ...) with at least ten samples beyond it, or 50 when even p99
// has fewer.
func supportedPercentile(n int) float64 {
	p := 50.0
	for beyond := 0.01; float64(n)*beyond >= 10; beyond /= 10 {
		p = 100 * (1 - beyond)
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest value.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 3 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s[1 : len(s)-1] {
		sum += x
	}
	return sum / float64(len(s)-2)
}
