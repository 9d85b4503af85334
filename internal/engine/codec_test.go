package engine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/pipeline"
	"clustersim/internal/stats"
	"clustersim/internal/steer"
	"clustersim/internal/workload"
)

// sampleResult builds a fully-populated successful result, histograms
// included, without running a simulation.
func sampleResult() *engine.Result {
	h := func(limit int, samples ...int64) *stats.Histogram {
		hg := stats.NewHistogram(limit)
		for _, s := range samples {
			hg.Observe(s)
		}
		return hg
	}
	return &engine.Result{
		Simpoint: &workload.Simpoint{Name: "gzip-1", Bench: "gzip", FP: false, Weight: 0.25, Seed: 42},
		Setup:    "VC(2->4)",
		Metrics: &pipeline.Metrics{
			Cycles: 12345, Uops: 20000, Copies: 321,
			AllocStallCycles: 17,
			StallCycles:      [8]int64{0, 1, 2, 3, 4, 5, 6, 7},
			FetchStallCycles: 99, Branches: 2000, Mispredicts: 150,
			LinkTransfers: 400, LinkConflicts: 7,
			L1Hits: 5000, L2Hits: 600, MemAccesses: 70, LSQForwards: 8,
			PerCluster: []pipeline.ClusterMetrics{
				{Dispatched: 10000, CopiesInserted: 100, OccupancySum: 999, IntIssued: 8000, FPIssued: 100, CopyIssued: 100, IntOccSum: 5, FPOccSum: 6},
				{Dispatched: 10000, CopiesInserted: 221, OccupancySum: 888, IntIssued: 7000, FPIssued: 200, CopyIssued: 221, IntOccSum: 7, FPOccSum: 8},
			},
			Histograms: &pipeline.OccupancyHistograms{
				ROB:         h(16, 1, 2, 3),
				IntIQ:       h(16, 4, 5),
				FPIQ:        h(16, 6),
				CopyQ:       h(16, 7, 7, 7),
				CopyLatency: h(16, 9, 10),
			},
		},
		Complexity: steer.Complexity{
			DependenceChecks: 1, VoteOps: 2, SerializedDecisions: 3,
			CounterReads: 4, MapReads: 5, MapWrites: 6, Steered: 20000,
		},
	}
}

// Encode → decode → re-encode must be byte-identical, and every field must
// survive the round trip (simpoint identity only: programs don't travel).
func TestResultCodecRoundTrip(t *testing.T) {
	res := sampleResult()
	blob, err := engine.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Setup != res.Setup {
		t.Errorf("setup: %q != %q", dec.Setup, res.Setup)
	}
	if !reflect.DeepEqual(dec.Metrics.PerCluster, res.Metrics.PerCluster) ||
		dec.Metrics.Cycles != res.Metrics.Cycles ||
		dec.Metrics.StallCycles != res.Metrics.StallCycles {
		t.Error("metrics did not survive the round trip")
	}
	if !reflect.DeepEqual(dec.Complexity, res.Complexity) {
		t.Error("complexity did not survive the round trip")
	}
	if dec.Simpoint.Name != "gzip-1" || dec.Simpoint.Seed != 42 || dec.Simpoint.Weight != 0.25 {
		t.Errorf("simpoint identity lost: %+v", dec.Simpoint)
	}
	if got, want := dec.Metrics.Histograms.CopyQ.Count(), res.Metrics.Histograms.CopyQ.Count(); got != want {
		t.Errorf("histogram count %d != %d", got, want)
	}
	if got, want := dec.Metrics.Histograms.ROB.Mean(), res.Metrics.Histograms.ROB.Mean(); got != want {
		t.Errorf("histogram mean %v != %v", got, want)
	}

	again, err := engine.EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Error("re-encoding a decoded result is not byte-identical")
	}
}

// Every truncation of a valid blob must fail cleanly; so must blobs from a
// different schema version or of the wrong payload kind.
func TestResultCodecRejectsMangledBlobs(t *testing.T) {
	blob, err := engine.EncodeResult(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := engine.DecodeResult(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(blob))
		}
	}

	versioned := append([]byte(nil), blob...)
	versioned[1]++ // future schema version
	if _, err := engine.DecodeResult(versioned); !errors.Is(err, engine.ErrCodecVersion) {
		t.Errorf("version mismatch: err = %v, want ErrCodecVersion", err)
	}

	kind := append([]byte(nil), blob...)
	kind[2]++ // another payload kind
	if _, err := engine.DecodeResult(kind); err == nil {
		t.Error("a blob of another payload kind decoded as a result")
	}
}

func TestEncodeFailedResultRefused(t *testing.T) {
	res := sampleResult()
	res.Err = errors.New("boom")
	if _, err := engine.EncodeResult(res); err == nil {
		t.Error("a failed result must not be serializable")
	}
	if _, err := engine.EncodeResult(nil); err == nil {
		t.Error("a nil result must not be serializable")
	}
}

// Decoding attacker-ish arbitrary bytes must never panic, and a valid
// blob surviving the corpus must round-trip byte-identically.
func FuzzDecodeResult(f *testing.F) {
	blob, err := engine.EncodeResult(sampleResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0xC5})
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := engine.DecodeResult(data)
		if err != nil {
			return
		}
		again, err := engine.EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded blob refused re-encoding: %v", err)
		}
		round, err := engine.DecodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded blob undecodable: %v", err)
		}
		final, err := engine.EncodeResult(round)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, final) {
			t.Error("encode(decode(x)) not a fixed point")
		}
	})
}

// Job specs round-trip losslessly through their JSON wire form for
// arbitrary field values — a prefetch degree of 0 included, which must
// stay distinct from an absent override — and re-encode byte-identically.
func FuzzJobSpecCodec(f *testing.F) {
	f.Add("gzip-1", "VC", 2, 4, 0, 8, 20000, 1000, 0, 0, "", 0, 0, false, false)
	f.Add("", "", -1, 0, 99, -5, 0, 0, 9, -4, "ring", 3, -1, true, true)
	f.Fuzz(func(t *testing.T, sp, kind string, clusters, numVC, region, chain, uops, warmup,
		latency, iq int, topology string, copyBW, prefetch int, hasPrefetch, histograms bool) {
		spec := engine.JobSpec{
			Simpoint: sp,
			Setup: engine.SetupSpec{
				Kind: kind, NumClusters: clusters, NumVC: numVC,
				RegionMaxOps: region, MaxChainLen: chain,
			},
		}
		m := engine.MachineSpec{LinkLatency: latency, IQSize: iq, Topology: topology,
			CopyBandwidth: copyBW, Histograms: histograms}
		if hasPrefetch {
			m.PrefetchDegree = &prefetch
		}
		spec.Opts = engine.OptionsSpec{NumUops: uops, WarmupUops: warmup}
		if m != (engine.MachineSpec{}) {
			spec.Opts.Machine = &m
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var dec engine.JobSpec
		if err := json.Unmarshal(blob, &dec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, spec) {
			t.Fatalf("round trip changed the spec: %+v != %+v", dec, spec)
		}
		if got := dec.Opts.RunOptions().Machine; !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed the machine: %+v != %+v", got, m)
		}
		again, err := json.Marshal(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again) {
			t.Error("job spec re-encoding not byte-identical")
		}
	})
}
