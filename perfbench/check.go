package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sync"

	"clustersim/internal/engine"
)

// The correctness gate. It runs outside every timed region; each
// problem it finds is reported and fails the run.

// resultErr says why a job's result is unusable, or returns nil: a
// result must carry no error, must not have hit the cycle limit, and
// must commit exactly the uops the job asked for.
func resultErr(job engine.Job, res *engine.Result) error {
	name := job.Simpoint.Name + "/" + job.Setup.Label
	switch {
	case res == nil:
		return fmt.Errorf("%s: no result", name)
	case res.Err != nil:
		return fmt.Errorf("%s: %v", name, res.Err)
	case res.Metrics == nil:
		return fmt.Errorf("%s: result without metrics", name)
	case res.Metrics.MaxCyclesExceeded:
		return fmt.Errorf("%s: exceeded the cycle limit", name)
	case res.Metrics.Uops != int64(job.Opts.NumUops):
		return fmt.Errorf("%s: committed %d uops, want %d", name, res.Metrics.Uops, job.Opts.NumUops)
	}
	return nil
}

// sameResult compares two results field for field.
func sameResult(a, b *engine.Result) bool {
	return a.Setup == b.Setup && a.Complexity == b.Complexity && reflect.DeepEqual(a.Metrics, b.Metrics)
}

// digest hashes the encoded form of every result in order: equal digests
// mean equal simulated statistics.
func digest(results []*engine.Result) ([32]byte, error) {
	h := sha256.New()
	for _, r := range results {
		blob, err := engine.EncodeResult(r)
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(blob)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// sample picks k distinct indices below n from the seed.
func sample(seed int64, n, k int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)[:min(k, n)]
}

// forEach runs fn(i) for i below n on procs goroutines.
func forEach(n, procs int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < max(procs, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// checkReference re-runs the sampled jobs through the uncached reference
// engine.Execute and compares each with the result under test.
func checkReference(ctx context.Context, cfg config, jobs []engine.Job, results []*engine.Result, o *outcome) {
	idx := sample(cfg.seed, len(jobs), cfg.checkSample)
	ref := make([]*engine.Result, len(idx))
	forEach(len(idx), cfg.procs, func(i int) { ref[i] = engine.Execute(ctx, jobs[idx[i]]) })
	for i, j := range idx {
		if results[j] != nil && !sameResult(ref[i], results[j]) {
			o.fail("%s/%s differs from the uncached reference engine.Execute",
				jobs[j].Simpoint.Name, jobs[j].Setup.Label)
		}
	}
}

// checkSim gates a sim-* run: every result of every pass is usable, all
// passes have the same digest, and a sample matches engine.Execute.
func checkSim(ctx context.Context, cfg config, jobs []engine.Job, passes [][]*engine.Result, o *outcome) {
	var first [32]byte
	for p, results := range passes {
		bad := false
		for i, r := range results {
			if err := resultErr(jobs[i], r); err != nil {
				o.failed++
				o.fail("pass %d: %v", p+1, err)
				bad = true
			}
		}
		if bad {
			continue
		}
		d, err := digest(results)
		switch {
		case err != nil:
			o.fail("pass %d: %v", p+1, err)
		case p == 0:
			first = d
		case d != first:
			o.fail("pass %d: simulated statistics differ from pass 1", p+1)
		}
	}
	checkReference(ctx, cfg, jobs, passes[0], o)
}

// delivery is one fleet job as it came back through the fleet.
type delivery struct {
	job   engine.Job
	isNew bool
	res   *engine.Result
}

// checkFleet gates fleet deliveries: every result is usable, every repeat
// is byte-identical to the first delivery of its job, every distinct
// job's encoded result is byte-identical to a local engine's, and a
// sample matches engine.Execute. It returns the first delivery of each
// distinct job in delivery order, with its encoded blob.
func checkFleet(ctx context.Context, cfg config, ds []delivery, o *outcome) ([]delivery, [][]byte) {
	var firsts []delivery
	var blobs [][]byte
	seen := map[string]int{}
	for _, d := range ds {
		if err := resultErr(d.job, d.res); err != nil {
			o.failed++
			o.fail("fleet: %v", err)
			continue
		}
		blob, err := engine.EncodeResult(d.res)
		if err != nil {
			o.fail("fleet: %v", err)
			continue
		}
		k := jobKey(d.job)
		if i, ok := seen[k]; ok {
			if !bytes.Equal(blobs[i], blob) {
				o.fail("fleet: repeat of %s differs from its first delivery", k)
			}
			continue
		}
		seen[k] = len(firsts)
		firsts = append(firsts, d)
		blobs = append(blobs, blob)
	}
	jobs := make([]engine.Job, len(firsts))
	results := make([]*engine.Result, len(firsts))
	for i, d := range firsts {
		jobs[i], results[i] = d.job, d.res
	}
	local := engine.New(engine.Options{Parallelism: cfg.procs})
	for jr := range local.Stream(ctx, jobs) {
		blob, err := engine.EncodeResult(jr.Result)
		if err != nil || !bytes.Equal(blob, blobs[jr.Index]) {
			o.fail("fleet: %s differs from a local engine's result", jobKey(jr.Job))
		}
	}
	checkReference(ctx, cfg, jobs, results, o)
	return firsts, blobs
}

// jobKey identifies a job by everything its result depends on; the
// trace seed tells program variants of one simpoint apart.
func jobKey(j engine.Job) string {
	return fmt.Sprintf("%s|%d|%s|%d|%d", j.Simpoint.Name, j.Simpoint.Seed, j.Setup.Label, j.Setup.NumClusters, j.Opts.NumUops)
}
