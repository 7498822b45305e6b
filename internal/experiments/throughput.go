package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// The throughput experiment measures the server runtime itself: one DC
// served over real loopback TCP (sharded worker pool with bounded
// admission, coalesced ack frames), several TC frontends dialing it, and
// an open-loop arrival schedule offered across them. Past the rate the
// server sustains, queueing stays bounded and the excess is shed as typed
// overloads the TC's wire client rides out.

// ThroughputOptions configures one open-loop TCP throughput run.
type ThroughputOptions struct {
	// Rate is the offered arrival rate, transactions per second
	// (default 8000).
	Rate int
	// Clients is the number of open-loop executor goroutines (default 64).
	Clients int
	// Duration is the offered window (default 3s).
	Duration time.Duration
	// Warmup is the unreported leading slice (default 500ms).
	Warmup time.Duration
	// TCs is the number of TC frontends sharing the DC (default 2).
	TCs int
	// Keys is the key-space size per TC partition (default 4096).
	Keys int
	// OpsPerTxn is the number of upserts per transaction (default 4).
	OpsPerTxn int
	// ValueSize is the value payload in bytes (default 64).
	ValueSize int
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	if o.Rate <= 0 {
		o.Rate = 8000
	}
	if o.Clients <= 0 {
		o.Clients = 64
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.TCs <= 0 {
		o.TCs = 2
	}
	if o.Keys <= 0 {
		o.Keys = 4096
	}
	if o.OpsPerTxn <= 0 {
		o.OpsPerTxn = 4
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 64
	}
	return o
}

// Throughput reports the server runtime under the offered load.
func Throughput(o ThroughputOptions) *harness.Report {
	t := harness.NewReport()
	t.Add(ThroughputRun("sharded+coalesced", o, "worker pool, bounded queues, batched ack frames"))
	return t
}

// ThroughputRun measures the server runtime: an in-process DC served on
// loopback TCP, o.TCs TC frontends dialed to it, and an open-loop schedule
// of o.Rate versioned multi-upsert transactions spread round-robin across
// the TCs (each TC writes its own key prefix, so the frontends never
// contend on locks — the server is the variable). Each transaction ships
// its upserts as one batch at commit and its commit-versions operations as
// a second. Result.Retries carries the wire resends and Result.Overloads
// the admission refusals the clients absorbed underneath the run.
func ThroughputRun(name string, o ThroughputOptions, note string) harness.Result {
	o = o.withDefaults()
	d, err := dc.New(dc.Config{Name: "bench-dc"})
	if err != nil {
		panic(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		panic(err)
	}
	l, err := wire.Listen("127.0.0.1:0", d)
	if err != nil {
		panic(err)
	}
	dep, err := core.New(core.Options{TCs: o.TCs, DCAddrs: []string{l.Addr()}})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	if err := dep.WaitConnected(ctx); err != nil {
		panic(err)
	}
	client := dep.Client()
	value := make([]byte, o.ValueSize)
	res := harness.RunOpenLoop(ctx, harness.Load{
		Name:     name,
		Rate:     o.Rate,
		Clients:  o.Clients,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Workload: func(ctx context.Context, seq int) error {
			tcIdx := seq % o.TCs
			// Multiplicative hash spreads adjacent arrivals across the
			// keyspace: sequential indexes would convoy every in-flight
			// transaction onto the same B-tree leaf.
			k := int(uint64(seq/o.TCs) * 2654435761 % uint64(o.Keys))
			opts := core.TxnOptions{TC: tcIdx + 1, Versioned: true}
			return client.RunTxn(ctx, opts, func(x *tc.Txn) error {
				for j := 0; j < o.OpsPerTxn; j++ {
					key := fmt.Sprintf("t%d/key%06d-%d", tcIdx, k, j)
					if err := x.Upsert("kv", key, value); err != nil {
						return err
					}
				}
				return nil
			})
		},
	})
	ws := dep.RemoteWireStats()
	res.Retries = ws.Resends
	res.Overloads += ws.Overloads
	res.Extra = []harness.Col{{Name: "note", Value: note}}
	dep.Close()
	l.Close()
	d.Close()
	return res
}
