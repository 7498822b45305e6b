package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Client is the TC-side stub implementing base.Service over a transport.
// There is exactly one implementation of the resend/encode protocol — this
// type — shared by both transports: the simulated fabric (Network.Connect)
// and real TCP (Dial). A transport supplies only message delivery: a
// best-effort send toward the server, a pump that feeds replies into
// dispatch, and a teardown hook. Everything protocol-shaped — request
// correlation, the §4.2 resend loop with backoff, unavailable-retry
// pauses, operation/batch encoding, and typed-error rehydration — lives
// here and cannot fork between deployments.
type Client struct {
	sendFn      func(*message)       // best-effort delivery toward the server
	resendAfter func() time.Duration // reply wait before resending
	onResend    func()               // transport resend accounting (may be nil)
	teardown    func()               // transport teardown; runs once, from Close

	closeCh   chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	waiters map[uint64]chan *message
	nextID  atomic.Uint64

	calls, resends, overloads atomic.Uint64

	simIn *endpoint // simulated transport only: SetDown support
	link  *tcpLink  // dialed transport only: reconnect supervision
}

func newClient(send func(*message), resendAfter func() time.Duration) *Client {
	return &Client{
		sendFn:      send,
		resendAfter: resendAfter,
		closeCh:     make(chan struct{}),
		waiters:     make(map[uint64]chan *message),
	}
}

// Close stops the client and fails outstanding calls: every blocked
// Perform/PerformBatch caller — whether waiting on a reply, mid-resend, or
// pausing out a recovering DC — unblocks promptly with CodeUnavailable,
// and blocked control calls return an error.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closeCh)
		if c.teardown != nil {
			c.teardown()
		}
	})
}

// SetDown marks the client (TC process) up or down; a down client drops
// inbound replies, as a crashed TC would. Only meaningful on the simulated
// transport — a real crashed TC process stops existing instead.
func (c *Client) SetDown(down bool) {
	if c.simIn != nil {
		c.simIn.down.Store(down)
	}
}

// Closed reports whether Close has been called. Callers with their own
// retry loops (the TC's write shipping) use it to stop resending through a
// stub whose every reply will be CodeUnavailable.
func (c *Client) Closed() bool {
	select {
	case <-c.closeCh:
		return true
	default:
		return false
	}
}

// Calls returns the number of request attempts sent (including resends).
func (c *Client) Calls() uint64 { return c.calls.Load() }

// Resends returns how many of those attempts were resends of an
// unacknowledged request — the §4.2 persistence that rides out lossy
// fabrics and DC outages alike.
func (c *Client) Resends() uint64 { return c.resends.Load() }

// Overloads returns how many replies refused a request because the
// server's worker queues were full (base.ErrOverloaded). Each one was
// retried after a pause — the counter makes backpressure visible without
// breaking the delivery contract.
func (c *Client) Overloads() uint64 { return c.overloads.Load() }

// dispatch hands one server reply to the waiter registered under its
// correlation id. Transport pumps call it; duplicate or late replies for
// answered (or abandoned) attempts are dropped here. A coalesced
// msgReplyBatch fans out into its member replies — losing or duplicating
// the whole batch on the way here is no different from losing or
// duplicating each member.
func (c *Client) dispatch(m *message) {
	if m.kind == msgReplyBatch {
		batch, err := decodeAckBatch(m.body)
		if err != nil {
			return // corrupt batch: drop it whole; resends recover
		}
		for _, r := range batch {
			c.dispatch(r)
		}
		return
	}
	if m.kind != msgReply {
		return
	}
	c.mu.Lock()
	ch := c.waiters[m.id]
	c.mu.Unlock()
	if ch != nil {
		select {
		case ch <- m:
		default: // duplicate reply for an already-answered attempt
		}
	}
}

// call sends m (with a fresh correlation id per attempt) and resends until
// a reply arrives, the client is closed, or ctx is done (the returned
// error is then the ErrCancelled-wrapped ctx error). Cancellation abandons
// only the wait: attempts already delivered may still execute at the DC.
func (c *Client) call(ctx context.Context, kind msgKind, tc base.TCID, epoch base.Epoch, lsn base.LSN, body []byte) (*message, error) {
	resend := c.resendAfter()
	attempt := 0
	for {
		id := c.nextID.Add(1)
		ch := make(chan *message, 1)
		c.mu.Lock()
		c.waiters[id] = ch
		c.mu.Unlock()
		c.sendFn(&message{kind: kind, id: id, tc: tc, epoch: epoch, lsn: lsn, body: body})
		c.calls.Add(1)
		if attempt > 0 {
			c.resends.Add(1)
			if c.onResend != nil {
				c.onResend()
			}
		}
		timer := time.NewTimer(resend)
		select {
		case reply := <-ch:
			timer.Stop()
			c.mu.Lock()
			delete(c.waiters, id)
			c.mu.Unlock()
			return reply, nil
		case <-timer.C:
			c.mu.Lock()
			delete(c.waiters, id)
			c.mu.Unlock()
			attempt++
			// Exponential-ish backoff, capped: persistent resend per §4.2.
			if attempt > 4 && resend < time.Second {
				resend *= 2
			}
		case <-ctx.Done():
			timer.Stop()
			c.mu.Lock()
			delete(c.waiters, id)
			c.mu.Unlock()
			return nil, base.CancelErr(ctx)
		case <-c.closeCh:
			timer.Stop()
			return &message{kind: msgReply, err: closedErrText}, nil
		}
	}
}

// closedErrText names the taxonomy sentinel so controlErr rehydrates a
// closed-stub failure as base.ErrUnavailable.
var closedErrText = "wire: client closed: " + base.ErrUnavailable.Error()

// isOverloadReply reports whether a reply error is a server admission
// refusal (the overloadedErrText the listener sends, matched the same way
// base.RehydrateWireError matches every wire-crossing sentinel).
func isOverloadReply(errText string) bool {
	return strings.Contains(errText, base.ErrOverloaded.Error())
}

// Perform implements base.Service. It blocks, resending, until the DC
// acknowledges — exactly-once courtesy of unique request IDs (op.LSN) and
// DC idempotence — or until ctx is done (CodeCancelled).
func (c *Client) Perform(ctx context.Context, op *base.Op) *base.Result {
	body := base.AppendOp(nil, op)
	for {
		reply, err := c.call(ctx, msgPerform, op.TC, op.Epoch, op.LSN, body)
		if err != nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeCancelled}
		}
		if reply.err != "" {
			if isOverloadReply(reply.err) {
				// The server shed the request before it touched the service:
				// count it, pause out the queue pressure, and re-offer,
				// invisibly to the caller.
				c.overloads.Add(1)
				if code := c.pause(ctx); code != base.CodeOK {
					return &base.Result{LSN: op.LSN, Code: code}
				}
				continue
			}
			return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
		}
		res, _, derr := base.DecodeResult(reply.body)
		putReplyBuf(reply.body)
		if derr != nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
		}
		// CodeStaleEpoch is a permanent nack (the sender's incarnation was
		// fenced by a restart): returned as-is, never retried.
		if res.Code == base.CodeUnavailable {
			// DC up but still recovering; retry after a pause (which a
			// concurrent Close or cancellation cuts short).
			if code := c.pause(ctx); code != base.CodeOK {
				return &base.Result{LSN: op.LSN, Code: code}
			}
			continue
		}
		return res
	}
}

// PerformBatch implements base.Service: one message carries the whole
// batch, one reply carries the per-operation results. A reply containing
// any CodeUnavailable result (the DC was down or recovering) triggers a
// resend of the whole batch — per-operation idempotence absorbs the
// re-execution of operations that did land.
func (c *Client) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if len(ops) == 1 {
		return []*base.Result{c.Perform(ctx, ops[0])}
	}
	body := base.AppendOpBatch(nil, ops)
	fail := func(code base.Code) []*base.Result {
		rs := make([]*base.Result, len(ops))
		for i, op := range ops {
			rs[i] = &base.Result{LSN: op.LSN, Code: code}
		}
		return rs
	}
	for {
		reply, err := c.call(ctx, msgPerformBatch, ops[0].TC, ops[0].Epoch, ops[0].LSN, body)
		if err != nil {
			return fail(base.CodeCancelled)
		}
		if reply.err != "" {
			if isOverloadReply(reply.err) {
				c.overloads.Add(1)
				if code := c.pause(ctx); code != base.CodeOK {
					return fail(code)
				}
				continue
			}
			return fail(base.CodeUnavailable)
		}
		rs, derr := decodeBatchReply(reply.body, len(ops))
		if derr != nil {
			return fail(base.CodeBadRequest)
		}
		unavailable := false
		for _, r := range rs {
			if r.Code == base.CodeUnavailable {
				unavailable = true
				break
			}
		}
		if !unavailable {
			return rs
		}
		if code := c.pause(ctx); code != base.CodeOK {
			return fail(code)
		}
	}
}

func decodeBatchReply(body []byte, want int) ([]*base.Result, error) {
	rs, _, err := base.DecodeResultBatch(body)
	putReplyBuf(body)
	if err != nil {
		return nil, err
	}
	if len(rs) != want {
		return nil, fmt.Errorf("wire: batch reply size %d, want %d", len(rs), want)
	}
	return rs, nil
}

// pause sleeps one resend interval before retrying a recovering DC. It
// returns CodeOK to retry, CodeUnavailable when the client was closed
// during the wait, or CodeCancelled when ctx expired first.
func (c *Client) pause(ctx context.Context) base.Code {
	timer := time.NewTimer(c.resendAfter())
	defer timer.Stop()
	select {
	case <-timer.C:
		return base.CodeOK
	case <-ctx.Done():
		return base.CodeCancelled
	case <-c.closeCh:
		return base.CodeUnavailable
	}
}

// EndOfStableLog implements base.Service as fire-and-forget; the TC
// re-broadcasts the watermark periodically, so loss only delays pruning.
func (c *Client) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	c.sendFn(&message{kind: msgEOSL, tc: tc, epoch: epoch, lsn: eosl})
}

// SafeTS implements base.Service as fire-and-forget; the TC re-broadcasts
// its safe timestamp on a tick, so loss only delays snapshot reads. The
// safe timestamp rides the frame's lsn field; the horizon travels in the
// body.
func (c *Client) SafeTS(tc base.TCID, epoch base.Epoch, safe base.TS, horizon base.TS) {
	c.sendFn(&message{
		kind:  msgSafeTS,
		tc:    tc,
		epoch: epoch,
		lsn:   base.LSN(safe),
		body:  binary.AppendUvarint(nil, uint64(horizon)),
	})
}

// LowWaterMark implements base.Service as fire-and-forget.
func (c *Client) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	c.sendFn(&message{kind: msgLWM, tc: tc, epoch: epoch, lsn: lwm})
}

// Checkpoint implements base.Service with resend until acknowledged.
func (c *Client) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	return c.controlErr(c.call(ctx, msgCheckpoint, tc, epoch, newRSSP, nil))
}

// BeginRestart implements base.Service with resend until acknowledged.
func (c *Client) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	return c.controlErr(c.call(ctx, msgBeginRestart, tc, epoch, stableLSN, nil))
}

// EndRestart implements base.Service with resend until acknowledged.
func (c *Client) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	return c.controlErr(c.call(ctx, msgEndRestart, tc, epoch, 0, nil))
}

// Catalog asks the remote service which tables it serves (msgCatalog,
// resent until acknowledged). The fleet-assembly placement cross-check
// compares the answer against the placement spec. Servers whose service
// has no catalog fail typed with base.ErrUnavailable.
func (c *Client) Catalog(ctx context.Context) ([]string, error) {
	reply, err := c.call(ctx, msgCatalog, 0, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	if reply.err != "" {
		return nil, fmt.Errorf("wire: %w", base.RehydrateWireError(reply.err))
	}
	return decodeCatalog(reply.body)
}

func (c *Client) controlErr(reply *message, err error) error {
	if err != nil {
		return err
	}
	if reply.err != "" {
		// Control failures cross the wire as strings; rehydrate the typed
		// sentinels (stale-epoch, unavailable) so errors.Is keeps working
		// through the stub.
		return fmt.Errorf("wire: %w", base.RehydrateWireError(reply.err))
	}
	return nil
}
