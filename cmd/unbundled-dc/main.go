// Command unbundled-dc runs one data component as a standalone process
// serving the TC:DC protocol over TCP — the deployable half of the
// paper's unbundling. Point one or more unbundled-tc processes (or any
// core deployment built with Options.DCAddrs) at its listen address.
//
//	unbundled-dc -listen 127.0.0.1:7070 -tables kv,users -dir ./dc0
//
// With -dir, the stable media (pages and DC-log) live in that directory
// and survive kill -9: restarting with the same flags re-opens the state,
// runs DC-log recovery, and resumes serving; connected TCs notice the
// re-established connection and replay their redo streams automatically.
// Without -dir the media are in-memory: a restarted DC comes back empty
// and is rebuilt entirely from the TCs' redo streams, which is only
// lossless while the TCs have never checkpointed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/stats"
	"github.com/cidr09/unbundled/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "TCP listen address (use :0 for an ephemeral port)")
	admin := flag.String("admin", "", "HTTP admin listen address serving /stats, /healthz, /drain, /undrain (empty: no admin endpoint)")
	tables := flag.String("tables", "kv", "comma-separated tables to create (idempotent across restarts)")
	dir := flag.String("dir", "", "data directory for stable media (empty: in-memory, lost on exit)")
	name := flag.String("name", "dc0", "DC name for diagnostics")
	pageBytes := flag.Int("page-bytes", 4096, "page split threshold")
	cache := flag.Int("cache", 0, "buffer-pool budget in page-bytes-sized pages: the pool evicts once its pages, each charged its encoded size (at most page-bytes), exceed cache×page-bytes bytes (0: default 1024)")
	workers := flag.Int("workers", 0, "request worker pool size (0: 2x GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "per-worker queue capacity before requests are refused as overloaded (0: default 256)")
	flag.Parse()

	d, err := dc.New(dc.Config{
		Name:          *name,
		Dir:           *dir,
		PageBytes:     *pageBytes,
		CacheCapacity: *cache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unbundled-dc:", err)
		os.Exit(1)
	}
	for _, table := range strings.Split(*tables, ",") {
		if table = strings.TrimSpace(table); table == "" {
			continue
		}
		if err := d.CreateTable(table); err != nil {
			fmt.Fprintf(os.Stderr, "unbundled-dc: create table %s: %v\n", table, err)
			os.Exit(1)
		}
	}

	l, err := wire.ListenWith(*listen, d, wire.ListenConfig{
		Workers:    *workers,
		QueueDepth: *queueDepth,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unbundled-dc:", err)
		os.Exit(1)
	}
	// The listening line is a tiny readiness protocol: supervisors (the
	// e2e suite, scripts) wait for it and parse the bound address from it,
	// which makes -listen :0 usable.
	fmt.Printf("unbundled-dc: %s listening on %s (tables: %s)\n", *name, l.Addr(), *tables)
	if *dir != "" {
		fmt.Printf("unbundled-dc: stable media in %s (tables now: %s)\n", *dir, strings.Join(d.Tables(), ","))
	}
	if *admin != "" {
		reg := stats.NewRegistry()
		d.RegisterStats(reg.Group("dc"))
		l.RegisterStats(reg.Group("wire"))
		adm, err := stats.Serve(*admin, reg, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unbundled-dc: admin:", err)
			os.Exit(1)
		}
		defer adm.Close()
		// Same readiness protocol as the service line: parseable bound
		// address, so -admin :0 works under a supervisor.
		fmt.Printf("unbundled-dc: admin listening on %s\n", adm.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	fmt.Println("unbundled-dc: shutting down")
	l.Close()
	d.Close()
}
