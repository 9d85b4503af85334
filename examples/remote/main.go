// remote demonstrates the two layers of remote execution: the typed
// clusterd client SDK (submit a batch of declarative job specs, follow
// the SSE event stream, fetch a full result by content key), and the
// Runner seam above it — the same RunMatrixOn call that fans a matrix
// across local CPU cores executes it on a clusterd fleet when handed a
// remote runner.
//
// Start a server first, then point the example at it:
//
//	go run ./cmd/clusterd -addr :8080 -cachedir /tmp/clusterd-cache
//	go run ./examples/remote -addr http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"clustersim"
	"clustersim/client"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "clusterd base URL")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	c, err := client.New(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		log.Fatalf("no clusterd at %s (start one with: go run ./cmd/clusterd): %v", *addr, err)
	}

	// --- Layer 1: the wire API, typed. -------------------------------
	specs := []clustersim.JobSpec{
		{Simpoint: "gzip-1", Setup: clustersim.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: clustersim.OptionsSpec{NumUops: 20_000}},
		{Simpoint: "gzip-1", Setup: clustersim.SetupSpec{Kind: "VC", NumVC: 2, NumClusters: 2}, Opts: clustersim.OptionsSpec{NumUops: 20_000}},
	}
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %d jobs as %s\n", sub.Total, sub.ID)

	if err := c.Stream(ctx, sub.ID, func(ev client.JobEvent) {
		fmt.Printf("  done: %-8s %-6s IPC %.3f (%d copies)\n", ev.Simpoint, ev.Setup, ev.IPC, ev.Copies)
	}); err != nil {
		log.Fatal(err)
	}

	// Any result is fetchable by its content key, forever — the store is
	// content-addressed, so this works across daemon restarts too.
	res, err := c.Result(ctx, sub.Keys[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched %s/%s by key: %d cycles, %d uops\n",
		res.Simpoint.Name, res.Setup, res.Metrics.Cycles, res.Metrics.Uops)

	// --- Layer 2: the Runner seam. ------------------------------------
	// The exact code that runs a comparison matrix locally, pointed at
	// the fleet: only the runner changes.
	runner, err := clustersim.NewRemoteRunner(*addr)
	if err != nil {
		log.Fatal(err)
	}
	workloads := []*clustersim.Workload{
		clustersim.WorkloadByName("gzip-1"),
		clustersim.WorkloadByName("mcf"),
	}
	setups := []clustersim.Setup{clustersim.SetupOP(2), clustersim.SetupVC(2, 2)}
	matrix, err := clustersim.RunMatrixOn(ctx, runner, workloads, setups, clustersim.RunOptions{NumUops: 20_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nremote matrix (slowdown vs OP):")
	for i, w := range workloads {
		if matrix[i][0].Err != nil || matrix[i][1].Err != nil {
			log.Fatalf("%s: %v %v", w.Name, matrix[i][0].Err, matrix[i][1].Err)
		}
		slow := (float64(matrix[i][1].Metrics.Cycles)/float64(matrix[i][0].Metrics.Cycles) - 1) * 100
		fmt.Printf("  %-8s VC vs OP: %+.2f%%\n", w.Name, slow)
	}

	st := runner.Stats()
	fmt.Printf("\nrunner stats: %d simulations executed remotely, %d served from the fleet's caches\n",
		st.Simulations, st.ResultHits+st.StoreHits)
}
