// Pipelined operation shipping: multi-op write transactions over a
// misbehaving wire (real propagation delay, loss, duplication). Each
// transaction logs its writes without waiting for the DC and ships them as
// one batch at commit, whose ack barrier holds the locks until every write
// is applied. Then a TC crash mid-transaction shows recovery still holds.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/cidr09/unbundled"
)

func open() *unbundled.Deployment {
	dep, err := unbundled.Open(unbundled.Options{
		TCs: 1, DCs: 1, Tables: []string{"kv"},
		Network: &unbundled.NetworkConfig{
			Delay:    200 * time.Microsecond,
			LossProb: 0.01,
			DupProb:  0.01,
			Seed:     1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	return dep
}

func run() time.Duration {
	dep := open()
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	const txns, ops = 50, 4
	start := time.Now()
	for i := 0; i < txns; i++ {
		if err := client.RunTxn(ctx, unbundled.TxnOptions{Versioned: true}, func(x *unbundled.Txn) error {
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("k%03d", (i*ops+j)%64)
				if err := x.Upsert("kv", key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start)
}

func main() {
	fmt.Printf("50 txns x 4 writes over a 200µs lossy wire: %v\n", run().Round(time.Millisecond))

	// Crash the TC with a transaction still uncommitted: restart must keep
	// committed data and drop the loser.
	dep := open()
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		return x.Insert("kv", "committed", []byte("keep"))
	}); err != nil {
		log.Fatal(err)
	}
	loser, err := client.Begin(ctx, unbundled.TxnOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := loser.Insert("kv", "ghost", []byte("drop")); err != nil {
		log.Fatal(err)
	}
	dep.CrashTC(0)
	if err := dep.RecoverTC(0); err != nil {
		log.Fatal(err)
	}
	if err := client.RunTxn(ctx, unbundled.TxnOptions{}, func(x *unbundled.Txn) error {
		if v, ok, _ := x.Read("kv", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data lost: %q %v", v, ok)
		}
		if _, ok, _ := x.Read("kv", "ghost"); ok {
			return fmt.Errorf("uncommitted write survived recovery")
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crash mid-pipeline: committed data survived, loser rolled back")
}
