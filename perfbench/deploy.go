package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

const table = "kv"

// deployment is one system under test. Untraced, it is what production
// assembles: core.New over DCAddrs (the TCs dial a DC served by
// wire.Listen with the default ListenConfig), or core.New with the DC in
// process. Traced, the same parts are assembled by hand with tc.New so
// the base.Service on each side of the TC:DC boundary can be decorated.
// Every TC and DC uses its default configuration, with in-memory media.
type deployment struct {
	w      *workload
	tr     *tracer // nil when untraced
	dci    *dc.DC
	ln     *wire.Listener
	addr   string
	dep    *core.Deployment
	tcs    []*tc.TC
	wires  []*wire.Client // traced TCP only; untraced ones live in dep
	client *core.Client

	// redoDone receives the duration of each TC replay after a DC
	// restart on a traced TCP deployment (untraced ones replay through
	// core's supervision). Buffered for a few reconnects per TC, so a
	// replay never blocks on a restart that stopped listening.
	redoDone chan time.Duration
	closed   chan struct{}
}

func dcConfig() dc.Config { return dc.Config{Name: "dc0"} }

func tcConfig(i int) tc.Config { return tc.Config{ID: base.TCID(i + 1)} }

// serve returns the base.Service a wire.Listener (or a direct TC) sees.
func (d *deployment) serve(x *dc.DC) base.Service {
	if d.tr != nil {
		return &dcSide{Service: x, tr: d.tr}
	}
	return x
}

func build(ctx context.Context, w *workload, tr *tracer) (*deployment, error) {
	d := &deployment{w: w, tr: tr, redoDone: make(chan time.Duration, 4*w.tcs),
		closed: make(chan struct{})}
	var err error
	if w.tcp {
		err = d.buildTCP(ctx)
	} else {
		err = d.buildDirect()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) buildTCP(ctx context.Context) error {
	var err error
	if d.dci, err = dc.New(dcConfig()); err != nil {
		return fmt.Errorf("build dc: %w", err)
	}
	if err := d.dci.CreateTable(table); err != nil {
		return fmt.Errorf("build dc: %w", err)
	}
	if d.ln, err = wire.Listen("127.0.0.1:0", d.serve(d.dci)); err != nil {
		return fmt.Errorf("build listen: %w", err)
	}
	d.addr = d.ln.Addr()
	if d.tr == nil {
		d.dep, err = core.New(core.Options{TCs: d.w.tcs, DCAddrs: []string{d.addr},
			TCConfig: tcConfig})
		if err != nil {
			return fmt.Errorf("build tcs: %w", err)
		}
		d.tcs = d.dep.TCs
		d.client = d.dep.Client()
		wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return d.dep.WaitConnected(wctx)
	}
	for i := 0; i < d.w.tcs; i++ {
		cl := wire.Dial(d.addr, wire.DialConfig{})
		d.wires = append(d.wires, cl)
		t, err := tc.New(tcConfig(i), []base.Service{&tcSide{Service: cl, tr: d.tr}}, nil)
		if err != nil {
			return fmt.Errorf("build tc: %w", err)
		}
		d.tcs = append(d.tcs, t)
		// What core's supervision does on a re-established session:
		// replay the redo stream to the restarted DC, retrying until it
		// succeeds.
		cl.OnReconnect(func() {
			start := time.Now()
			for err := t.RecoverDC(0); err != nil; err = t.RecoverDC(0) {
				logf("redo tc %d: %v", t.ID(), err)
				select {
				case <-d.closed:
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
			select {
			case d.redoDone <- time.Since(start):
			default:
			}
		})
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, cl := range d.wires {
		if err := cl.WaitConnected(wctx); err != nil {
			return fmt.Errorf("build connect: %w", err)
		}
	}
	d.client = handAssembled(d.tcs)
	return nil
}

func (d *deployment) buildDirect() error {
	if d.tr == nil {
		var err error
		d.dep, err = core.New(core.Options{TCs: d.w.tcs, DCs: 1, Tables: []string{table},
			TCConfig: tcConfig, DCConfig: func(int) dc.Config { return dcConfig() }})
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		d.dci = d.dep.DCs[0]
		d.tcs = d.dep.TCs
		d.client = d.dep.Client()
		return nil
	}
	var err error
	if d.dci, err = dc.New(dcConfig()); err != nil {
		return fmt.Errorf("build dc: %w", err)
	}
	if err := d.dci.CreateTable(table); err != nil {
		return fmt.Errorf("build dc: %w", err)
	}
	svc := &tcSide{Service: d.serve(d.dci), tr: d.tr}
	for i := 0; i < d.w.tcs; i++ {
		t, err := tc.New(tcConfig(i), []base.Service{svc}, nil)
		if err != nil {
			return fmt.Errorf("build tc: %w", err)
		}
		d.tcs = append(d.tcs, t)
	}
	d.client = handAssembled(d.tcs)
	return nil
}

// handAssembled gives TCs built with tc.New the deployment client (its
// retry policy and routing); transactions pin their TC, so the client
// needs nothing from the deployment but the TC list.
func handAssembled(tcs []*tc.TC) *core.Client {
	return (&core.Deployment{TCs: tcs}).Client()
}

func (d *deployment) close() {
	close(d.closed)
	if d.dep != nil {
		d.dep.Close()
	} else {
		for _, t := range d.tcs {
			t.Close()
		}
		for _, cl := range d.wires {
			cl.Close()
		}
	}
	if d.ln != nil {
		_ = d.ln.Close() // shutting down; nothing left to serve
	}
	if d.dci != nil {
		d.dci.Close()
	}
}

// restartTimes is one DC restart, measured.
type restartTimes struct {
	total     time.Duration // crash .. first new commit
	dcRecover time.Duration // DC-log recovery
	redo      time.Duration // longest TC redo replay (traced or direct only)
	redoOps   float64
}

// restartDC crashes the DC and brings it back the way its deployment
// does in production, then times the first new commit. The crash drops
// everything but the DC's simulated stable media: forced DC-log records
// and written pages. A DC behind wire.Listen is re-listened on the same
// address after recovery; the TCs redial and replay their redo streams,
// as core's supervision does.
func (d *deployment) restartDC(ctx context.Context, probe func(ctx context.Context) error) (restartTimes, error) {
	var rt restartTimes
	redo0 := d.redoOpsPerTC()
	start := time.Now()
	if !d.w.tcp {
		if d.dep != nil {
			d.dep.CrashDC(0)
		} else {
			d.dci.Crash()
		}
		t := time.Now()
		if err := d.dci.Recover(); err != nil {
			return rt, fmt.Errorf("restart: %w", err)
		}
		rt.dcRecover = time.Since(t)
		t = time.Now()
		for _, x := range d.tcs {
			if err := x.RecoverDC(0); err != nil {
				return rt, fmt.Errorf("restart: %w", err)
			}
		}
		rt.redo = time.Since(t)
	} else {
		if err := d.ln.Close(); err != nil {
			return rt, fmt.Errorf("restart: close listener: %w", err)
		}
		d.dci.Crash()
		t := time.Now()
		if err := d.dci.Recover(); err != nil {
			return rt, fmt.Errorf("restart: %w", err)
		}
		rt.dcRecover = time.Since(t)
		var err error
		for i := 0; ; i++ {
			if d.ln, err = wire.Listen(d.addr, d.serve(d.dci)); err == nil {
				break
			}
			if i == 100 {
				return rt, fmt.Errorf("restart: re-listen: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		// New operations wait at the TC while its replay runs; wait for
		// every TC's replay to begin so the probe commit is a new one.
		deadline := time.Now().Add(30 * time.Second)
		for !d.replayStarted(redo0) {
			if time.Now().After(deadline) {
				return rt, errors.New("restart: TC redo replay never started")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := probe(ctx); err != nil {
		return rt, fmt.Errorf("restart: first commit: %w", err)
	}
	rt.total = time.Since(start)
	if d.w.tcp && d.tr != nil {
		for range d.tcs {
			select {
			case dur := <-d.redoDone:
				rt.redo = max(rt.redo, dur)
			case <-time.After(30 * time.Second):
				return rt, errors.New("restart: TC redo replay never finished")
			}
		}
	}
	for i, n := range d.redoOpsPerTC() {
		rt.redoOps += float64(n - redo0[i])
	}
	return rt, nil
}

func (d *deployment) redoOpsPerTC() []uint64 {
	out := make([]uint64, len(d.tcs))
	for i, t := range d.tcs {
		out[i] = t.Stats().RedoOps
	}
	return out
}

// replayStarted reports whether every TC has replayed at least one
// operation since redo0 was read (each TC's log holds operations past its
// last checkpoint, so every replay has at least one to send).
func (d *deployment) replayStarted(redo0 []uint64) bool {
	for i, n := range d.redoOpsPerTC() {
		if n == redo0[i] {
			return false
		}
	}
	return true
}
