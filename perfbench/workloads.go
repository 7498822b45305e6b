package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/tc"
)

// workload is one named traffic mix. Keys come in groups of four; every
// read/write transaction touches one group and every read-only
// transaction reads whole groups, so each group carries an invariant a
// torn transaction would break.
type workload struct {
	name   string
	tcp    bool // TCs dial a DC served by wire.Listen; else direct calls
	tcs    int
	groups int // key groups per TC (4 keys each)
	value  int // value bytes
	// readFrac is the share of arrivals that are read-only
	// transactions.
	readFrac float64
	// theta skews group choice (Zipf); 0 is uniform.
	theta float64
	// transfer selects the read-mix transaction: read two keys of a group
	// and move an amount between them. Otherwise a transaction upserts
	// all four keys of a group with its arrival number.
	transfer bool
	// readGroups is how many groups a read-only transaction reads.
	readGroups int
	// readPolicy is how read-only transactions get their view.
	readPolicy core.SnapshotPolicy
	ladder     grid          // capacity ladder
	slo        time.Duration // p99 bound of read/write transactions
}

// grid is a capacity ladder's planned rates, arrivals/s: rungs rates
// from from, step apart. The ladder's time is split over the planned
// rungs; it may offer more or fewer.
type grid struct {
	from, step float64
	rungs      int
}

func key(tcIdx, group, j int) string {
	// The four keys of a group sit in four separate key ranges, so a
	// transaction touches four leaves rather than one.
	return fmt.Sprintf("t%d/%d/g%07d", tcIdx, j, group)
}

// rng is splitmix64: the inputs of arrival seq depend on (seed, seq)
// only, never on which executor runs it or when.
type rng struct{ s uint64 }

func newRng(seed, seq int64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks 0..n-1 with P(rank k) ~ 1/(k+1)^theta (the YCSB
// generator, Gray et al.), then scatters ranks over groups with a fixed
// permutation so hot groups are not neighbours.
type zipf struct {
	n                        int
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) group(u float64) int {
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return int(uint64(rank) * 2654435761 % uint64(z.n))
}

// errOracle marks a run whose outputs are wrong; it fails the run.
var errOracle = errors.New("oracle")

// state is what the benchmark knows the database must hold: for the
// upsert workloads, every committed writer of each group with its
// real-time interval; for transfers, every key's exact balance.
type state struct {
	w    *workload
	seed int64
	zipf *zipf

	mu      sync.Mutex
	writers [][]writer // [tc*groups+group]
	balance []atomic.Int64

	attempts  atomic.Uint64 // transaction bodies run, retries included
	violation atomic.Pointer[error]
}

type writer struct {
	seq        int64
	start, end time.Time
}

const initialBalance = 1000

func newState(w *workload, seed int64) *state {
	s := &state{w: w, seed: seed, writers: make([][]writer, w.tcs*w.groups)}
	if w.theta > 0 {
		s.zipf = newZipf(w.groups, w.theta)
	}
	if w.transfer {
		s.balance = make([]atomic.Int64, w.tcs*w.groups*4)
		for i := range s.balance {
			s.balance[i].Store(initialBalance)
		}
	}
	return s
}

func (s *state) fail(format string, args ...any) {
	err := fmt.Errorf("%w: "+format, append([]any{errOracle}, args...)...)
	s.violation.CompareAndSwap(nil, &err)
}

func (s *state) err() error {
	if p := s.violation.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *state) pickGroup(r *rng) int {
	if s.zipf != nil {
		return s.zipf.group(r.float())
	}
	return r.intn(s.w.groups)
}

func (s *state) encode(n int64) []byte {
	v := make([]byte, s.w.value)
	binary.BigEndian.PutUint64(v, uint64(n))
	for i := 8; i < len(v); i++ {
		v[i] = byte(n>>uint(i%8)) ^ byte(i)
	}
	return v
}

func decode(v []byte) (int64, bool) {
	if len(v) < 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(v)), true
}

// op wraps one Txn call in a span when the transaction is traced.
func op(tr *tracer, tt *txnTrace, name string, f func() error) error {
	if tt == nil {
		return f()
	}
	sp := span{id: tr.newID(), parent: tt.root, txn: tt.root, name: name, start: time.Now()}
	tt.cur.Store(sp.id)
	err := f()
	sp.end = time.Now()
	tr.record(sp)
	return err
}

// runTxn is Client.RunTxn, traced when tr is on: a root span around the
// call, a span around each Txn call the body makes, and a commit span
// from the body's return to RunTxn's return (Commit runs inside RunTxn).
func runTxn(ctx context.Context, c *core.Client, tr *tracer, opts core.TxnOptions,
	body func(x *tc.Txn, tt *txnTrace) error) error {
	if tr == nil || !tr.on.Load() {
		return c.RunTxn(ctx, opts, func(x *tc.Txn) error { return body(x, nil) })
	}
	name := spanTxn
	if opts.ReadOnly {
		name = spanReadTxn
	}
	tt := &txnTrace{root: tr.newID()}
	ctx = context.WithValue(ctx, traceKey{}, tt)
	var commit span
	start := time.Now()
	err := c.RunTxn(ctx, opts, func(x *tc.Txn) error {
		if err := body(x, tt); err != nil {
			return err
		}
		commit = span{id: tr.newID(), parent: tt.root, txn: tt.root, name: spanCommit, start: time.Now()}
		tt.cur.Store(commit.id)
		return nil
	})
	end := time.Now()
	if err == nil {
		commit.end = end
		tr.record(commit)
	}
	tr.record(span{id: tt.root, name: name, txn: tt.root, start: start, end: end})
	return err
}

// arrival runs global arrival seq against d and checks what it reads.
func (s *state) arrival(d *deployment) arrivalFunc {
	w := s.w
	return func(ctx context.Context, seq int64) (int, error) {
		r := newRng(s.seed, seq)
		tcIdx := int(seq % int64(w.tcs))
		if r.float() < w.readFrac {
			return classRead, s.readTxn(ctx, d, r, tcIdx)
		}
		if w.transfer {
			return classTxn, s.transferTxn(ctx, d, r, tcIdx)
		}
		return classTxn, s.upsertTxn(ctx, d, r, tcIdx, seq)
	}
}

// upsertTxn writes arrival seq into all four keys of one group.
func (s *state) upsertTxn(ctx context.Context, d *deployment, r *rng, tcIdx int, seq int64) error {
	g := s.pickGroup(r)
	val := s.encode(seq)
	start := time.Now()
	err := runTxn(ctx, d.client, d.tr, core.TxnOptions{TC: tcIdx + 1, Versioned: true},
		func(x *tc.Txn, tt *txnTrace) error {
			s.attempts.Add(1)
			for j := 0; j < 4; j++ {
				if err := op(d.tr, tt, spanUpsert, func() error { return x.Upsert(table, key(tcIdx, g, j), val) }); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	i := tcIdx*s.w.groups + g
	s.mu.Lock()
	s.writers[i] = append(s.writers[i], writer{seq: seq, start: start, end: time.Now()})
	s.mu.Unlock()
	return nil
}

// transferTxn reads two keys of a group under locks and moves an amount
// from one to the other: four operations, every one executed. Deadlock
// victims are retried by RunTxn with a fresh body run.
func (s *state) transferTxn(ctx context.Context, d *deployment, r *rng, tcIdx int) error {
	g := s.pickGroup(r)
	a := r.intn(4)
	b := (a + 1 + r.intn(3)) % 4
	amount := int64(1 + r.intn(100))
	ka, kb := key(tcIdx, g, a), key(tcIdx, g, b)
	err := runTxn(ctx, d.client, d.tr, core.TxnOptions{TC: tcIdx + 1, Versioned: true},
		func(x *tc.Txn, tt *txnTrace) error {
			s.attempts.Add(1)
			var va, vb int64
			for _, rd := range []struct {
				k string
				v *int64
			}{{ka, &va}, {kb, &vb}} {
				err := op(d.tr, tt, spanRead, func() error {
					raw, found, err := x.Read(table, rd.k)
					if err != nil {
						return err
					}
					n, ok := decode(raw)
					if !found || !ok {
						s.fail("transfer read %s: found=%v len=%d", rd.k, found, len(raw))
					}
					*rd.v = n
					return nil
				})
				if err != nil {
					return err
				}
			}
			if err := op(d.tr, tt, spanUpsert, func() error { return x.Upsert(table, ka, s.encode(va-amount)) }); err != nil {
				return err
			}
			return op(d.tr, tt, spanUpsert, func() error { return x.Upsert(table, kb, s.encode(vb+amount)) })
		})
	if err != nil {
		return err
	}
	base := tcIdx * s.w.groups * 4
	s.balance[base+g*4+a].Add(-amount)
	s.balance[base+g*4+b].Add(amount)
	return nil
}

// readTxn reads whole groups in one read-only transaction (a snapshot, or
// shared locks, per the workload's read policy) and checks each is
// untorn: the four keys carry one writer's arrival number, or, for
// transfers, sum to the group's constant total.
func (s *state) readTxn(ctx context.Context, d *deployment, r *rng, tcIdx int) error {
	groups := make([]int, s.w.readGroups)
	for i := range groups {
		groups[i] = s.pickGroup(r)
	}
	return runTxn(ctx, d.client, d.tr, core.TxnOptions{TC: tcIdx + 1, ReadOnly: true, Snapshot: s.w.readPolicy},
		func(x *tc.Txn, tt *txnTrace) error {
			for _, g := range groups {
				var vals [4]int64
				for j := 0; j < 4; j++ {
					err := op(d.tr, tt, spanRead, func() error {
						raw, found, err := x.Read(table, key(tcIdx, g, j))
						if err != nil {
							return err
						}
						n, ok := decode(raw)
						if !found || !ok {
							s.fail("read-only read %s: found=%v len=%d", key(tcIdx, g, j), found, len(raw))
						}
						vals[j] = n
						return nil
					})
					if err != nil {
						return err
					}
				}
				s.checkGroup(tcIdx, g, vals, false)
			}
			return nil
		})
}

// checkGroup checks one group's four values. final adds the end-of-run
// checks: for transfers every balance is exact; for upserts the group
// holds a committed writer's number and no committed writer of the group
// began after that writer finished (a later one would have to win).
func (s *state) checkGroup(tcIdx, g int, vals [4]int64, final bool) {
	if s.w.transfer {
		sum := vals[0] + vals[1] + vals[2] + vals[3]
		if sum != 4*initialBalance {
			s.fail("group t%d/g%d torn: balances %v sum to %d, want %d", tcIdx, g, vals, sum, 4*initialBalance)
		}
		if final {
			base := tcIdx*s.w.groups*4 + g*4
			for j, v := range vals {
				if want := s.balance[base+j].Load(); v != want {
					s.fail("key %s balance %d, want %d", key(tcIdx, g, j), v, want)
				}
			}
		}
		return
	}
	if vals[0] != vals[1] || vals[0] != vals[2] || vals[0] != vals[3] {
		s.fail("group t%d/g%d torn: values %v", tcIdx, g, vals)
		return
	}
	if !final {
		return
	}
	seq := vals[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.writers[tcIdx*s.w.groups+g]
	var end time.Time // zero: the preload, which precedes every writer
	if seq != preloadSeq {
		found := false
		for _, wr := range ws {
			if wr.seq == seq {
				end, found = wr.end, true
				break
			}
		}
		if !found {
			s.fail("group t%d/g%d holds %d, which no committed transaction wrote", tcIdx, g, seq)
			return
		}
	}
	for _, wr := range ws {
		if wr.seq != seq && wr.start.After(end) {
			s.fail("group t%d/g%d holds %d, but committed writer %d began after it finished", tcIdx, g, seq, wr.seq)
			return
		}
	}
}

// preloadSeq is the arrival number preloaded values carry.
const preloadSeq = -1

const batchGroups = 32

// preload writes every key of every TC's partition, then checkpoints so
// the measured window starts from a clean redo scan start point.
func (s *state) preload(ctx context.Context, d *deployment) error {
	w := s.w
	errs := make(chan error, w.tcs)
	for t := 0; t < w.tcs; t++ {
		go func(t int) {
			errs <- func() error {
				for g0 := 0; g0 < w.groups; g0 += batchGroups {
					err := d.client.RunTxn(ctx, core.TxnOptions{TC: t + 1, Versioned: true}, func(x *tc.Txn) error {
						for g := g0; g < min(g0+batchGroups, w.groups); g++ {
							for j := 0; j < 4; j++ {
								v := s.encode(preloadSeq)
								if w.transfer {
									v = s.encode(initialBalance)
								}
								if err := x.Upsert(table, key(t, g, j), v); err != nil {
									return err
								}
							}
						}
						return nil
					})
					if err != nil {
						return fmt.Errorf("preload: %w", err)
					}
				}
				return nil
			}()
		}(t)
	}
	var first error
	for t := 0; t < w.tcs; t++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	logf("preloaded: %d pages stored, %d cached", d.dci.Store().Len(), d.dci.Pool().Cached())
	return d.checkpoint(ctx)
}

// checkpoint checkpoints every TC. Each TC's log is forced first: a DC
// checkpoint for one TC can wait on pages another TC touched, whose flush
// needs that TC's log stable, and with no load running nothing else
// would force it.
func (d *deployment) checkpoint(ctx context.Context) error {
	for _, t := range d.tcs {
		t.Log().Force()
	}
	for _, t := range d.tcs {
		if _, err := t.Checkpoint(ctx); err != nil {
			return fmt.Errorf("checkpoint tc %d: %w", t.ID(), err)
		}
	}
	return nil
}

// readBack reads every key through snapshot transactions and checks the
// final state of every group.
func (s *state) readBack(ctx context.Context, d *deployment) error {
	w := s.w
	for t := 0; t < w.tcs; t++ {
		for g0 := 0; g0 < w.groups; g0 += batchGroups {
			err := d.client.RunTxn(ctx, core.TxnOptions{TC: t + 1, ReadOnly: true}, func(x *tc.Txn) error {
				for g := g0; g < min(g0+batchGroups, w.groups); g++ {
					var vals [4]int64
					for j := 0; j < 4; j++ {
						raw, found, err := x.Read(table, key(t, g, j))
						if err != nil {
							return err
						}
						n, ok := decode(raw)
						if !found || !ok {
							s.fail("read back %s: found=%v len=%d", key(t, g, j), found, len(raw))
						}
						vals[j] = n
					}
					s.checkGroup(t, g, vals, true)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("read back: %w", err)
			}
		}
	}
	return s.err()
}
