package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"albadross/internal/feed"
	"albadross/internal/telemetry"
)

// runFeed posts simulated telemetry with known anomalies to a live
// `serve -ingest-shards` server, then prints the run's JSON report and
// the confusion table of each node's last served label against the
// anomaly injected into it. It exits 1 on a transport error or on any
// answer but 200 or 429.
func runFeed(args []string) {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "http://127.0.0.1:8080", "base URL of a serve -ingest-shards server")
		system = fs.String("system", "volta", "simulated system: volta or eclipse")
		nodes  = fs.Int("nodes", 32, "simulated nodes")
		rows   = fs.Int("rows", 128, "readings sent to each node")
	)
	fs.Parse(args) //albacheck:ignore errsilent flag.ExitOnError: Parse exits the process on error, the return is dead
	build, ok := map[string]func(int) *telemetry.SystemSpec{
		"volta": telemetry.Volta, "eclipse": telemetry.Eclipse,
	}[*system]
	if !ok {
		fatal(fmt.Errorf("unknown system %q (volta or eclipse)", *system))
	}
	rep, err := feed.Run(feed.Config{Addr: *addr, System: build, Nodes: *nodes, Rows: *rows})
	if err != nil {
		fatal(err)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
	if err := rep.WriteTable(os.Stdout); err != nil {
		fatal(err)
	}
}
