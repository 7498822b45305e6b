package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Tracing from outside the layers. The traced run wraps the base.Service
// a TC holds (the dialed wire.Client, or the DC itself when the TC calls
// it directly) and the base.Service a wire.Listener serves (the DC), and
// the workload code records spans around Client.RunTxn and the Txn calls
// it makes. Spans stay in memory until the run ends, then go to a file.

type span struct {
	id, parent uint64
	txn        uint64 // root span id of the transaction; 0 = none
	name       string
	start, end time.Time
	// opKey links a DC-side span to the TC-side call that caused it: the
	// wire carries no trace context, so the link is resolved afterwards.
	opKey opKey
}

type opKey struct {
	tc   base.TCID
	lsn  base.LSN
	ts   base.TS
	kind base.OpKind
	key  string
}

func keyOf(op *base.Op) opKey {
	return opKey{tc: op.TC, lsn: op.LSN, ts: op.TS, kind: op.Kind, key: op.Key}
}

const traceShards = 32

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	on     atomic.Bool
	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	sh := &t.shards[s.id%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		out = append(out, t.shards[i].spans...)
	}
	return out
}

// txnTrace travels in the context handed to Client.RunTxn; the TC passes
// that context (or a cancel-free copy, which keeps values) to every
// Perform, so the TC-side decorator learns the transaction and the Txn
// call it serves. cur is the span id of the Txn call in progress.
type txnTrace struct {
	root uint64
	cur  atomic.Uint64
}

type traceKey struct{}

func traceOf(ctx context.Context) *txnTrace {
	tt, _ := ctx.Value(traceKey{}).(*txnTrace)
	return tt
}

// Span names. The stages of a transaction are the self times of these.
const (
	spanTxn     = "core.run_txn"  // Client.RunTxn, read/write transaction
	spanReadTxn = "core.read_txn" // Client.RunTxn, read-only
	spanRead    = "tc.read"       // Txn.Read
	spanUpsert  = "tc.upsert"     // Txn.Upsert
	spanCommit  = "tc.commit"     // commit: fn returned .. RunTxn returns
	spanCall    = "wire.call"     // TC-side base.Service call
	spanPerform = "dc.perform"    // DC-side base.Service call
)

// tcSide decorates the base.Service a TC calls.
type tcSide struct {
	base.Service
	tr *tracer
}

func (s *tcSide) Perform(ctx context.Context, op *base.Op) *base.Result {
	tt := traceOf(ctx)
	if tt == nil || !s.tr.on.Load() {
		return s.Service.Perform(ctx, op)
	}
	sp := span{id: s.tr.newID(), parent: tt.cur.Load(), txn: tt.root, name: spanCall,
		opKey: keyOf(op), start: time.Now()}
	res := s.Service.Perform(context.WithValue(ctx, parentKey{}, sp.id), op)
	sp.end = time.Now()
	s.tr.record(sp)
	return res
}

func (s *tcSide) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	tt := traceOf(ctx)
	if tt == nil || !s.tr.on.Load() || len(ops) == 0 {
		return s.Service.PerformBatch(ctx, ops)
	}
	sp := span{id: s.tr.newID(), parent: tt.cur.Load(), txn: tt.root, name: spanCall,
		opKey: keyOf(ops[0]), start: time.Now()}
	res := s.Service.PerformBatch(context.WithValue(ctx, parentKey{}, sp.id), ops)
	sp.end = time.Now()
	s.tr.record(sp)
	return res
}

// parentKey carries the TC-side call span to a DC called in-process.
type parentKey struct{}

// dcSide decorates the base.Service a DC exposes.
type dcSide struct {
	base.Service
	tr *tracer
}

func (s *dcSide) Perform(ctx context.Context, op *base.Op) *base.Result {
	if !s.tr.on.Load() {
		return s.Service.Perform(ctx, op)
	}
	parent, _ := ctx.Value(parentKey{}).(uint64)
	sp := span{id: s.tr.newID(), parent: parent, name: spanPerform, opKey: keyOf(op), start: time.Now()}
	res := s.Service.Perform(ctx, op)
	sp.end = time.Now()
	s.tr.record(sp)
	return res
}

func (s *dcSide) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if !s.tr.on.Load() || len(ops) == 0 {
		return s.Service.PerformBatch(ctx, ops)
	}
	parent, _ := ctx.Value(parentKey{}).(uint64)
	sp := span{id: s.tr.newID(), parent: parent, name: spanPerform, opKey: keyOf(ops[0]), start: time.Now()}
	res := s.Service.PerformBatch(ctx, ops)
	sp.end = time.Now()
	s.tr.record(sp)
	return res
}

// traceAnalysis is what the span tree yields.
type traceAnalysis struct {
	spans     []span
	self      map[uint64]time.Duration
	txns      int                      // complete read/write transaction trees
	stageSelf map[string]time.Duration // summed self time per span name, rw txns
	stageN    map[string]int           // span count per name, rw txns
	txnTotal  time.Duration            // summed core.run_txn duration
	orphans   int                      // DC-side spans with no TC-side caller
	// Over every span, read-only transactions included: summed duration,
	// summed self time and count per span name.
	dur, selfAll map[string]time.Duration
	cnt          map[string]int
	dcRead       struct {
		n   int
		sum time.Duration
	}
}

// analyze links DC-side spans to their callers, computes every span's
// self time (its duration minus the union of its children's intervals,
// clipped to it), and sums self time per stage over the read/write
// transactions.
func analyze(spans []span) *traceAnalysis {
	a := &traceAnalysis{spans: spans, self: make(map[uint64]time.Duration),
		stageSelf: make(map[string]time.Duration), stageN: make(map[string]int),
		dur: make(map[string]time.Duration), selfAll: make(map[string]time.Duration),
		cnt: make(map[string]int)}
	byID := make(map[uint64]*span, len(spans))
	calls := make(map[opKey][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		if s.name == spanCall {
			calls[s.opKey] = append(calls[s.opKey], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.name != spanPerform || s.parent != 0 {
			continue
		}
		// The caller is the TC-side call with the same operation identity
		// whose interval holds the DC-side start.
		for _, c := range calls[s.opKey] {
			if !s.start.Before(c.start) && !s.start.After(c.end) {
				s.parent = c.id
				break
			}
		}
		if s.parent == 0 {
			a.orphans++
		}
	}
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.parent]; ok {
			if s.name == spanPerform {
				s.txn = p.txn
			}
			children[p.id] = append(children[p.id], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		a.self[s.id] = s.end.Sub(s.start) - covered(s, children[s.id])
		a.dur[s.name] += s.end.Sub(s.start)
		a.selfAll[s.name] += a.self[s.id]
		a.cnt[s.name]++
		if s.name == spanPerform && s.opKey.kind == base.OpRead {
			a.dcRead.n++
			a.dcRead.sum += s.end.Sub(s.start)
		}
	}
	rwTxn := make(map[uint64]bool)
	for i := range spans {
		if spans[i].name == spanTxn {
			rwTxn[spans[i].id] = true
			a.txns++
			a.txnTotal += spans[i].end.Sub(spans[i].start)
		}
	}
	for i := range spans {
		s := &spans[i]
		root := s.txn
		if s.name == spanTxn {
			root = s.id
		}
		if !rwTxn[root] {
			continue
		}
		a.stageSelf[s.name] += a.self[s.id]
		a.stageN[s.name]++
	}
	return a
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(p.start) {
			s = p.start
		}
		if e.After(p.end) {
			e = p.end
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cs, ce time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(ce) {
			total += ce.Sub(cs)
			cs, ce = v[0], v[1]
			continue
		}
		if v[1].After(ce) {
			ce = v[1]
		}
	}
	return total + ce.Sub(cs)
}

// writeSpans writes one JSON object per span: name, start and end in
// microseconds since the tracer started, parent and transaction ids, and
// the computed self time.
func (t *tracer) writeSpans(path string, a *traceAnalysis) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	us := func(ts time.Time) float64 { return float64(ts.Sub(t.epoch)) / float64(time.Microsecond) }
	for i := range a.spans {
		s := &a.spans[i]
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_us":%.3f,"end_us":%.3f,"parent":%d,"txn":%d,"self_us":%.3f}`+"\n",
			s.id, s.name, us(s.start), us(s.end), s.parent, s.txn,
			float64(a.self[s.id])/float64(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
