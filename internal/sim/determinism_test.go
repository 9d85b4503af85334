package sim

import (
	"bytes"
	"context"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

// determinismSetups is every steering configuration the reports exercise:
// the paper's schemes plus the hardware-heuristic extras of the policy
// survey. A new policy should be added here so the byte-identity contract
// covers it.
func determinismSetups() []Setup {
	return []Setup{
		SetupOP(2),
		SetupOPNoStall(2),
		SetupOneCluster(2),
		SetupOB(2),
		SetupRHOP(2),
		SetupVC(2, 2),
		SetupVC(2, 4),
		SetupVCComm(2, 2),
		SetupVCChain(2, 2, 4),
		SetupHeuristic("ADV", 2),
		SetupHeuristic("LC", 2),
		SetupHeuristic("SLC", 2),
		SetupHeuristic("MOD", 2),
	}
}

// TestPolicyDeterminismSuite runs every steering policy on reduced-suite
// points through two independent engines and requires byte-identical
// Result encodings and identical result content keys. This is the
// contract the hot-loop rewrite (windowed state, event wheel) must not
// disturb: identical wire bytes means identical reports, and identical
// keys means a warm content-addressed store still answers every job.
func TestPolicyDeterminismSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy suite sweep")
	}
	sps := []*workload.Simpoint{workload.ByName("crafty"), workload.ByName("swim"), workload.ByName("mcf")}
	opts := RunOptions{NumUops: 3000}

	for _, setup := range determinismSetups() {
		setup := setup
		t.Run(setup.Label, func(t *testing.T) {
			t.Parallel()
			engA := engine.New(engine.Options{Parallelism: 1})
			engB := engine.New(engine.Options{Parallelism: 1})
			for _, sp := range sps {
				job := engine.Job{Simpoint: sp, Setup: setup, Opts: opts}
				a := engA.Run(context.Background(), job)
				b := engB.Run(context.Background(), job)
				if a.Err != nil || b.Err != nil {
					t.Fatalf("%s: %v %v", sp.Name, a.Err, b.Err)
				}
				encA, errA := engine.EncodeResult(a)
				encB, errB := engine.EncodeResult(b)
				if errA != nil || errB != nil {
					t.Fatalf("%s: encoding: %v %v", sp.Name, errA, errB)
				}
				if !bytes.Equal(encA, encB) {
					t.Errorf("%s: result encodings differ across engines (nondeterministic simulation)", sp.Name)
				}
				if keyA, keyB := engA.ResultKey(job), engB.ResultKey(job); keyA != keyB {
					t.Errorf("%s: result keys differ: %q vs %q", sp.Name, keyA, keyB)
				}
			}
		})
	}
}

// TestPooledCoreByteIdentity is the core-pooling contract at system level:
// one engine running the full policy suite — its cores flowing through the
// per-shape pool, reset between jobs — must produce byte-identical Result
// encodings to engine.Execute, the pristine fresh-core-per-job reference.
// Every setup here shares one config shape, so beyond the first job the
// engine runs almost entirely on reused cores.
func TestPooledCoreByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy suite sweep")
	}
	sps := []*workload.Simpoint{workload.ByName("crafty"), workload.ByName("swim"), workload.ByName("mcf")}
	opts := RunOptions{NumUops: 3000}
	eng := engine.New(engine.Options{Parallelism: 2})

	for _, setup := range determinismSetups() {
		for _, sp := range sps {
			job := engine.Job{Simpoint: sp, Setup: setup, Opts: opts}
			got := eng.Run(context.Background(), job)
			want := engine.Execute(context.Background(), job)
			if got.Err != nil || want.Err != nil {
				t.Fatalf("%s/%s: %v %v", setup.Label, sp.Name, got.Err, want.Err)
			}
			encGot, errG := engine.EncodeResult(got)
			encWant, errW := engine.EncodeResult(want)
			if errG != nil || errW != nil {
				t.Fatalf("%s/%s: encoding: %v %v", setup.Label, sp.Name, errG, errW)
			}
			if !bytes.Equal(encGot, encWant) {
				t.Errorf("%s/%s: pooled-core result differs from fresh-core reference", setup.Label, sp.Name)
			}
		}
	}
	st := eng.Stats()
	if st.CorePoolHits == 0 {
		t.Error("suite ran without a single core-pool hit: pooling inactive")
	}
	if st.CorePoolHits+st.CorePoolMisses != st.Simulations {
		t.Errorf("pool accounting: hits %d + misses %d != simulations %d",
			st.CorePoolHits, st.CorePoolMisses, st.Simulations)
	}
}

// TestResultKeysStableAcrossRewrite pins the exact result content keys of
// a representative job set. A key change silently orphans every blob in
// existing content-addressed stores (all cached results re-simulate), so
// it must be a deliberate decision, not a side effect. The keys carry the
// model version and a hash of the resolved machine config (cfg…), which
// replaced the warm-up and tweak-name fields.
func TestResultKeysStableAcrossRewrite(t *testing.T) {
	eng := engine.New(engine.Options{})
	want := map[string]string{
		"OP":   "result|v1|model1|crafty|s2698591577689284590|h66f41a72d268c871|OP|p|c2|u3000|cfg12ad1109fa83a5d0",
		"VC":   "result|v1|model1|crafty|s2698591577689284590|h66f41a72d268c871|VC|pVC/2/0/0|c2|u3000|cfg12ad1109fa83a5d0",
		"OB":   "result|v1|model1|crafty|s2698591577689284590|h66f41a72d268c871|OB|pOB/2/0/0|c2|u3000|cfg12ad1109fa83a5d0",
		"RHOP": "result|v1|model1|crafty|s2698591577689284590|h66f41a72d268c871|RHOP|pRHOP/2/0/0|c2|u3000|cfg12ad1109fa83a5d0",
	}
	setups := map[string]Setup{
		"OP": SetupOP(2), "VC": SetupVC(2, 2), "OB": SetupOB(2), "RHOP": SetupRHOP(2),
	}
	for label, setup := range setups {
		job := engine.Job{Simpoint: workload.ByName("crafty"), Setup: setup, Opts: RunOptions{NumUops: 3000}}
		if key := eng.ResultKey(job); key != want[label] {
			t.Errorf("%s: result key drifted:\n got %q\nwant %q", label, key, want[label])
		}
	}
}
