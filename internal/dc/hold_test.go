package dc

import (
	"context"
	"errors"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestRestartHoldsLowWaterMarkUntilRedo is the regression for acknowledged
// writes lost across a DC restart. The TC's low-water mark counts replies
// from the incarnation that lost its cache; if the restarted DC prunes with
// it (at a flush, or on a write) before the TC's redo stream has been
// resent, the page's LSNlw swallows LSNs the redo has yet to re-apply and
// their replays are skipped as duplicates.
func TestRestartHoldsLowWaterMarkUntilRedo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart func(t *testing.T, d *DC, dir string) *DC
	}{
		{"crash-recover", func(t *testing.T, d *DC, _ string) *DC {
			d.Crash()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"reopen-dir", func(t *testing.T, _ *DC, dir string) *DC {
			// Dropping the DC without a shutdown is a process death: the
			// reopen is a restart from the stable media alone.
			r, err := New(Config{Name: "hold-reopen", Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			cfg := Config{Name: "hold"}
			if tc.name == "reopen-dir" {
				cfg.Dir = dir
			}
			d := newDC(t, cfg)
			upsert := func(d *DC, lsn base.LSN, val string) {
				t.Helper()
				op := &base.Op{TC: 1, LSN: lsn, Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte(val)}
				if res := d.Perform(ctx, op); res.Code != base.CodeOK {
					t.Fatalf("upsert @%d: %+v", lsn, res)
				}
			}
			upsert(d, 1, "one")
			upsert(d, 2, "two")
			d.EndOfStableLog(1, 0, 2)
			d.LowWaterMark(1, 0, 2)
			stale, err := d.Incarnation(ctx)
			if err != nil {
				t.Fatal(err)
			}

			d = tc.restart(t, d, dir)
			// The TC's periodic broadcasts reach the new incarnation before
			// its redo does.
			d.EndOfStableLog(1, 0, 2)
			d.LowWaterMark(1, 0, 2)
			// An end-of-redo meant for the lost incarnation must not lift
			// the new one's hold.
			if err := d.EndRedo(ctx, 1, 0, stale); !errors.Is(err, base.ErrUnavailable) {
				t.Fatalf("end-redo with the lost incarnation's token = %v, want ErrUnavailable", err)
			}
			token, err := d.Incarnation(ctx)
			if err != nil || token == stale {
				t.Fatalf("incarnation after restart = %d (lost: %d), %v", token, stale, err)
			}

			// Redo, with a flush between the two replays.
			upsert(d, 1, "one")
			if err := d.Pool().FlushPage(d.Tree("t").Root(), false); err != nil {
				t.Fatal(err)
			}
			upsert(d, 2, "two")
			if res := d.Perform(ctx, &base.Op{TC: 1, Kind: base.OpRead, Table: "t", Key: "k"}); string(res.Value) != "two" {
				t.Fatalf("after redo k = %q, want LSN 2's value %q", res.Value, "two")
			}

			// Once the redo is complete the mark prunes again, on the very
			// next write.
			if err := d.EndRedo(ctx, 1, 0, token); err != nil {
				t.Fatal(err)
			}
			upsert(d, 3, "three")
			leaf, err := d.Pool().Fetch(d.Tree("t").Root())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Pool().Unpin(leaf.ID)
			if a := leaf.Ab.Get(1); a.Low != 2 || a.InCount() != 1 {
				t.Fatalf("after end-redo abstract LSN = %v, want <2,{3}>", a)
			}
		})
	}
}

// TestWritePrunesAbstractLSN checks that the write path, not only a flush,
// keeps {LSNin} down to the writes the TC has not yet heard back about.
func TestWritePrunesAbstractLSN(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	for i := 0; i < 100; i++ {
		if res := h.do(base.OpUpsert, "k", []byte("v"), false); res.Code != base.CodeOK {
			t.Fatalf("upsert: %+v", res)
		}
		h.ack()
	}
	leaf, err := d.Pool().Fetch(d.Tree("t").Root())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Pool().Unpin(leaf.ID)
	if a := leaf.Ab.Get(1); a.Low != 99 || a.InCount() != 1 {
		t.Fatalf("abstract LSN after 100 acknowledged writes = %v, want <99,{100}>", a)
	}
}
