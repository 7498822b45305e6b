package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/tc"
)

// The E1 reference phase (paper §7): one client, closed loop, the same
// 4-op transactions on the monolithic kernel and on the unbundled kernel
// with the TC calling the DC directly, over a key space preloaded before
// timing. Every op of every transaction runs. The two kernels alternate
// transaction by transaction, so drift in the machine hits both alike.

const (
	e1Keys = 4096
	e1Txns = 3000 // per kernel
)

type e1Result struct {
	mono, unbundled time.Duration // median transaction latency
	n               int           // transactions per kernel
}

func e1Key(i int) string { return fmt.Sprintf("key%06d", i) }

// e1Ops draws transaction i's four operations: key and read-or-upsert.
func e1Ops(seed int64, i int) (keys [4]string, reads [4]bool) {
	r := newRng(seed, int64(i))
	for j := range keys {
		keys[j] = e1Key(r.intn(e1Keys))
		reads[j] = r.float() < 0.5
	}
	return keys, reads
}

func runE1(ctx context.Context, seed int64) (e1Result, error) {
	var res e1Result
	val := make([]byte, 64)
	mono, err := monolith.New(monolith.Config{})
	if err != nil {
		return res, fmt.Errorf("e1: %w", err)
	}
	if err := mono.CreateTable(table); err != nil {
		return res, fmt.Errorf("e1: %w", err)
	}
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{table}})
	if err != nil {
		return res, fmt.Errorf("e1: %w", err)
	}
	defer dep.Close()
	client := dep.Client()
	for k0 := 0; k0 < e1Keys; k0 += 256 {
		err := mono.RunTxn(func(x *monolith.Txn) error {
			for k := k0; k < k0+256; k++ {
				if err := x.Upsert(table, e1Key(k), val); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
				for k := k0; k < k0+256; k++ {
					if err := x.Upsert(table, e1Key(k), val); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err != nil {
			return res, fmt.Errorf("e1 preload: %w", err)
		}
	}
	type txnAPI interface {
		Read(table, key string) ([]byte, bool, error)
		Upsert(table, key string, val []byte) error
	}
	body := func(x txnAPI, i int) error {
		keys, reads := e1Ops(seed, i)
		for j := range keys {
			if reads[j] {
				if _, _, err := x.Read(table, keys[j]); err != nil {
					return err
				}
				continue
			}
			if err := x.Upsert(table, keys[j], val); err != nil {
				return err
			}
		}
		return nil
	}
	var monoLat, unbLat []time.Duration
	for i := 0; i < e1Txns; i++ {
		start := time.Now()
		if err := mono.RunTxn(func(x *monolith.Txn) error { return body(x, i) }); err != nil {
			return res, fmt.Errorf("e1 monolith: %w", err)
		}
		monoLat = append(monoLat, time.Since(start))
		start = time.Now()
		if err := client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error { return body(x, i) }); err != nil {
			return res, fmt.Errorf("e1 unbundled: %w", err)
		}
		unbLat = append(unbLat, time.Since(start))
	}
	for _, l := range [][]time.Duration{monoLat, unbLat} {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	}
	res.mono, res.unbundled, res.n = quantile(monoLat, 0.5), quantile(unbLat, 0.5), len(monoLat)
	return res, nil
}
