package wire

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// dialTest pairs a Listener over svc with a dialed client, waiting for the
// session so tests exercise the connected path deterministically.
func dialTest(t *testing.T, svc base.Service, cfg DialConfig) (*Client, *Listener) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(l.Addr(), cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	t.Cleanup(func() {
		cl.Close()
		l.Close()
	})
	return cl, l
}

func TestTCPPerformAndBatch(t *testing.T) {
	svc := newEchoService()
	cl, _ := dialTest(t, svc, DialConfig{})

	res := cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 7, Kind: base.OpRead, Table: "t", Key: "hello"})
	if res.Code != base.CodeOK || string(res.Value) != "hello" || res.LSN != 7 {
		t.Fatalf("perform over tcp: %+v", res)
	}

	ops := make([]*base.Op, 5)
	for i := range ops {
		ops[i] = &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(100 + i), Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)}
	}
	rs := cl.PerformBatch(context.Background(), ops)
	if len(rs) != len(ops) {
		t.Fatalf("batch reply size %d", len(rs))
	}
	for i, r := range rs {
		if r.Code != base.CodeOK || r.LSN != ops[i].LSN {
			t.Fatalf("batch[%d] = %+v", i, r)
		}
	}

	if err := cl.Checkpoint(context.Background(), 1, 1, 50); err != nil {
		t.Fatalf("checkpoint over tcp: %v", err)
	}
	if err := cl.BeginRestart(context.Background(), 1, 2, 10); err != nil {
		t.Fatalf("begin-restart over tcp: %v", err)
	}
	if err := cl.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatalf("end-restart over tcp: %v", err)
	}
	// The redo bracket: the token crosses in the reply body and back in
	// the frame's lsn field, and a refusal arrives typed.
	if tok, err := cl.Incarnation(context.Background()); err != nil || tok != 7 {
		t.Fatalf("incarnation over tcp = %d, %v", tok, err)
	}
	if err := cl.EndRedo(context.Background(), 1, 2, 7); err != nil {
		t.Fatalf("end-redo over tcp: %v", err)
	}
	if err := cl.EndRedo(context.Background(), 1, 2, 8); !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("end-redo over tcp with a wrong token = %v, want ErrUnavailable", err)
	}

	// Watermarks are fire-and-forget; poll for arrival.
	cl.EndOfStableLog(1, 1, 42)
	cl.LowWaterMark(1, 1, 40)
	deadline := time.Now().Add(2 * time.Second)
	for {
		svc.mu.Lock()
		eosl, lwm := svc.eosl, svc.lwm
		svc.mu.Unlock()
		if eosl == 42 && lwm == 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermarks not delivered: eosl=%d lwm=%d", eosl, lwm)
		}
		time.Sleep(time.Millisecond)
	}
}

// staleService fails control calls with the typed stale-epoch sentinel so
// the test can prove rehydration across a real socket.
type staleService struct{ *echoService }

func (s staleService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	return fmt.Errorf("dc dcX: checkpoint for tc %d epoch %d behind fence 9: %w", tc, epoch, base.ErrStaleEpoch)
}

func TestTCPControlErrorRehydrates(t *testing.T) {
	cl, _ := dialTest(t, staleService{newEchoService()}, DialConfig{})
	err := cl.Checkpoint(context.Background(), 1, 1, 5)
	if !errors.Is(err, base.ErrStaleEpoch) {
		t.Fatalf("stale epoch not rehydrated over tcp: %v", err)
	}
}

// TestTCPServerRestartResendsAndReconnects is the transport half of the
// e2e kill -9 story: the listener dies mid-conversation, a blocked call
// resends into the void, a new listener binds the same address, and the
// supervised client reconnects and completes the call — firing the
// reconnect hook the deployment layer hangs recovery on.
func TestTCPServerRestartResendsAndReconnects(t *testing.T) {
	svc := newEchoService()
	cl, l := dialTest(t, svc, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	addr := l.Addr()

	if res := cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 1, Kind: base.OpRead, Table: "t", Key: "a"}); res.Code != base.CodeOK {
		t.Fatalf("warmup: %+v", res)
	}

	var hookFired atomic.Uint64
	cl.OnReconnect(func() { hookFired.Add(1) })

	l.Close() // the DC process dies

	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 2, Kind: base.OpRead, Table: "t", Key: "b"})
	}()
	select {
	case res := <-done:
		t.Fatalf("perform completed against a dead listener: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}

	l2, err := Listen(addr, svc) // the DC process restarts on the same address
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer l2.Close()

	select {
	case res := <-done:
		if res.Code != base.CodeOK || string(res.Value) != "b" {
			t.Fatalf("perform after restart: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("perform did not recover after listener restart")
	}
	if cl.Reconnects() == 0 {
		t.Fatal("client reports no reconnects after a listener restart")
	}
	if cl.Resends() == 0 {
		t.Fatal("client reports no resends despite the outage")
	}
	deadline := time.Now().Add(2 * time.Second)
	for hookFired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("OnReconnect hook never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPDialBeforeListen(t *testing.T) {
	// Reserve an address, then free it so Dial targets a not-yet-started DC.
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	defer cl.Close()
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 3, Kind: base.OpRead, Table: "t", Key: "late"})
	}()
	time.Sleep(20 * time.Millisecond)
	l, err := Listen(addr, newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	select {
	case res := <-done:
		if res.Code != base.CodeOK {
			t.Fatalf("perform after late listen: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("perform never completed after the listener came up")
	}
}

func TestTCPClientCloseUnblocksCalls(t *testing.T) {
	// No listener at all: calls resend into the void until Close.
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	done := make(chan *base.Result, 1)
	errs := make(chan error, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 4, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	go func() {
		errs <- cl.Checkpoint(context.Background(), 1, 1, 9)
	}()
	time.Sleep(20 * time.Millisecond)
	cl.Close()
	select {
	case res := <-done:
		if res.Code != base.CodeUnavailable {
			t.Fatalf("perform after close: %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("perform still blocked after Close")
	}
	select {
	case err := <-errs:
		if !errors.Is(err, base.ErrUnavailable) {
			t.Fatalf("control call after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control call still blocked after Close")
	}
}

func TestTCPCancellation(t *testing.T) {
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: 5, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Code != base.CodeCancelled {
			t.Fatalf("cancelled perform: %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("perform ignored cancellation")
	}
}
