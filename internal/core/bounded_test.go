package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/tc"
)

// TestPreloadKeepsAbstractLSNsBounded preloads 1024 groups of four 512 B
// values, 32 groups per transaction, and checks the cached leaves: every
// {LSNin} stays small, because each write prunes with the TC's low-water
// mark, and leaves fill up instead of splitting early on the weight of
// their abstract LSNs.
func TestPreloadKeepsAbstractLSNsBounded(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const groups, perTxn = 1024, 32
	val := bytes.Repeat([]byte("v"), 512)
	for g0 := 0; g0 < groups; g0 += perTxn {
		err := d.Client().RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *tc.Txn) error {
			for g := g0; g < g0+perTxn; g++ {
				for j := 0; j < 4; j++ {
					if err := x.Upsert("kv", fmt.Sprintf("g%07d/%d", g, j), val); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	leaves, recs, maxIn := 0, 0, 0
	d.DCs[0].Pool().Pages(func(pg *page.Page) {
		pg.L.RLock()
		defer pg.L.RUnlock()
		if !pg.Leaf || pg.Ab.Len() == 0 {
			return // branches and the catalog
		}
		leaves++
		recs += len(pg.Recs)
		maxIn = max(maxIn, pg.Ab.InCountTotal())
	})
	if leaves == 0 {
		t.Fatal("no cached leaves")
	}
	if maxIn > 64 {
		t.Errorf("largest cached {LSNin} = %d, want <= 64", maxIn)
	}
	if avg := float64(recs) / float64(leaves); avg < 3 {
		t.Errorf("cached leaves hold %.2f records on average (%d over %d), want >= 3", avg, recs, leaves)
	}
	t.Logf("%d cached leaves, %d records, largest {LSNin} %d", leaves, recs, maxIn)
}
