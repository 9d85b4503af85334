package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"testing"

	"clustersim/internal/steer"
	"clustersim/internal/trace"
)

var memDigestPrint = flag.Bool("memdigest-print", false, "log the current memory-stress digest table instead of only checking it")

// memStressConfigs strain the memory path where parking and fast-forward
// have to replay port, MSHR and prefetch-expiry effects exactly: a single
// read port, unlimited ports, two MSHRs, no prefetcher, a small LSQ and
// four clusters. Each runs with occupancy histograms and a warm-up, so the
// replayed per-cycle samples and the warm-up snapshot are covered too.
func memStressConfigs() map[string]Config {
	base := func(clusters int) Config {
		cfg := DefaultConfig(clusters)
		cfg.TrackHistograms = true
		cfg.WarmupUops = 1000
		return cfg
	}
	out := map[string]Config{"default": base(2)}
	cfg := base(2)
	cfg.Mem.L1.ReadPorts, cfg.Mem.MSHRs = 1, 2
	out["1port-2mshr"] = cfg
	cfg = base(2)
	cfg.Mem.L1.ReadPorts, cfg.Mem.L1.WritePorts = 0, 0
	out["unlimited-ports"] = cfg
	cfg = base(2)
	cfg.Mem.PrefetchDegree, cfg.Mem.MSHRs = 0, 4
	out["no-prefetch-4mshr"] = cfg
	cfg = base(4)
	cfg.LSQSize = 16
	out["4cluster-lsq16"] = cfg
	return out
}

// memStressDigests pins SHA-256 digests of the gob-encoded metrics and
// steering complexity of every stress configuration on the memory-bound
// quick-suite points plus swim, under OP and VC, at 5000 uops. The table
// was recorded with the per-cycle retry polling that parking replaced.
//
// Regenerate (only on a deliberate model change) with:
//
//	go test ./internal/pipeline -run TestMemoryStressDigest -memdigest-print -v
var memStressDigests = map[string]string{
	"1port-2mshr/ammp/OP":        "b2618a2d6e37f2b583f0ee5ce825b1d7c30347b5e51c9f536dddbb6e74905d57",
	"1port-2mshr/ammp/VC":        "b739276711e1852f09d58ea306f05256b393775ff521c8d332afe7948580096d",
	"1port-2mshr/gcc-1/OP":       "895bc4a22b9cbaaf15e0eb2a1b7506facfdd8870b9d8214b0f697d5a05ecc9af",
	"1port-2mshr/gcc-1/VC":       "f1a4ccf74c466272432bb6fc70c810f2b5a619a50bc356799c7129d10478d939",
	"1port-2mshr/mcf/OP":         "8d91e68afc9b7865b7c36016ac358366cadea058249662e2c8c17fb74650aca0",
	"1port-2mshr/mcf/VC":         "dbe3860c89509bafb04a31d0ff2ae40eef2bcc143090a8ca406be1ec0abc4ecd",
	"1port-2mshr/swim/OP":        "9eafab5e27f3905d63fe6af279390dc8f44a1612e19fe7dfcdb025c8b894b21e",
	"1port-2mshr/swim/VC":        "00bd13656b650dc04fe13842a85d40fceee36c82dabda7bb616c8954c98f79d9",
	"4cluster-lsq16/ammp/OP":     "ba14eae1034544a57da8b58beecd0c241d471e63324aef3dca322088250eb0c1",
	"4cluster-lsq16/ammp/VC":     "5327e6e7361a3c6b6645f6edd48a69419b91da56c61667b4a46f272f5e4b3ae0",
	"4cluster-lsq16/gcc-1/OP":    "79bcadd717e33024e3d15460f6050333aba83069024e36a5cf35ffbb216c969d",
	"4cluster-lsq16/gcc-1/VC":    "db51eef3fc209687fed1108ead6e341a886812504f78718306270e863ffa9066",
	"4cluster-lsq16/mcf/OP":      "eecf884c82d314b2793daeb4920e323a0fe2bce4f649e312b6cd2834a755c623",
	"4cluster-lsq16/mcf/VC":      "5ff5367e7c1d3f01242f5484eeac21aa9a7fd99edf3ad6af3f3ca9d816703cc8",
	"4cluster-lsq16/swim/OP":     "ec100a97f0f842f23bc57d0864854cabdd26a1ba5665ffd7ea652c3ce612ef5a",
	"4cluster-lsq16/swim/VC":     "3446b4c0804e928afae9cd4ff8244a13f6874a4ccd06dfbb8dce300eb2c7acf2",
	"default/ammp/OP":            "61e0110478c4f1e6775260be7771879428e59a45247b9cd7c583a2ee30561903",
	"default/ammp/VC":            "7e6f75d26a14920e0c23e07f456b833f33e7ba1031003cababf186f03c3951de",
	"default/gcc-1/OP":           "37d0488bd9af89f9bcd3d02ed1bb7ddf360c20fe107801a36906901e04e0ae44",
	"default/gcc-1/VC":           "e46d7f70d6a5447b932717ac7f5ad3aacbd6e42425f456354cc280e1dab1f94a",
	"default/mcf/OP":             "db937fb6563cc03395ffad563b958ebbde97f9179186a80d8918b17a7fb9553b",
	"default/mcf/VC":             "970a0b27a95efa178fa95f9d51cc1061ce456f368306409028b4dbff135581f1",
	"default/swim/OP":            "128517335734aff265189a3b8264e63f754e2d1517716cf4047b805fbaa0783e",
	"default/swim/VC":            "35bc5b29630705005335e514cbc7f6693714e484edc676a02ad29e3687de7c85",
	"no-prefetch-4mshr/ammp/OP":  "64276b60bfaa6b2bd7b1134a5f2f735ee88d6b8149115cb7a4ac8c07373715e5",
	"no-prefetch-4mshr/ammp/VC":  "1764e54b0ef258d71942d18092bbec1cb4a7b4371ab23999d528cc3ff6f86359",
	"no-prefetch-4mshr/gcc-1/OP": "f1de86c05b706c2f9db01c6a252b9b360615a09aafa4e93e95f451705cf9923f",
	"no-prefetch-4mshr/gcc-1/VC": "bff1686dd6ad5adc178d1e76bbb8cd8046302784bc939304383d78d4de02a897",
	"no-prefetch-4mshr/mcf/OP":   "312566121e419989c7999dd2537c53ce228b04a8375d1b82fa494adf03c6c3e1",
	"no-prefetch-4mshr/mcf/VC":   "aa78bdb7a0d84410439be5f1c5b3f73fcf2569e2264d4f0453412599bea58d87",
	"no-prefetch-4mshr/swim/OP":  "4ca3ce3102f85460813f230e467077e453e3e127f850b985b5d09ffe4236452f",
	"no-prefetch-4mshr/swim/VC":  "f01b03970851e333edbad7188130e137fa2320d5e6b694838f87b5fb609ba2cd",
	"unlimited-ports/ammp/OP":    "a7434fc85e8a894057e9090bd8a044d871dead90bb612903ec21c60ae724d082",
	"unlimited-ports/ammp/VC":    "d911d8a02de62e7611ab37a4fc019745c822cb921bb33aa38121df03b531e02e",
	"unlimited-ports/gcc-1/OP":   "4d49ae6538845609394c7da9e86b69b629f51f4fdf5353d5dcdfccb2878dc596",
	"unlimited-ports/gcc-1/VC":   "6633a26cf16fae0a06f3a187eed18f5b1badd85a600c9ec792ccda4ff7f81392",
	"unlimited-ports/mcf/OP":     "16b139f82865b4da9171dbd8fea970b8099e04787cfd3a9ab8f2b881ec594c82",
	"unlimited-ports/mcf/VC":     "c7f79aa7c5022cdba2808b7436a3251be72692752dcd4508e45bbef01c78fa39",
	"unlimited-ports/swim/OP":    "de33507e7725567f86bbb05cd04b042e59366f8e5f2ce03e962562094e3eb914",
	"unlimited-ports/swim/VC":    "efbb4181c737e8f82ac6e41148988bcd6eeec666d5ea7cf069b2cc3d5dd181ac",
}

// memStressNames are the simpoints the stress digests run.
var memStressNames = []string{"gcc-1", "mcf", "ammp", "swim"}

// runEncoded runs tr on a fresh core and gob-encodes the run's metrics
// and steering complexity, everything a result reports.
func runEncoded(t *testing.T, cfg Config, tr *trace.Trace, pol steer.Policy) ([]byte, *Core) {
	t.Helper()
	core, err := NewCore(cfg, pol, tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Run()
	if err != nil {
		t.Fatalf("%s/%s: %v", tr.Name, pol.Name(), err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(struct {
		M *Metrics
		C steer.Complexity
	}{m, core.ComplexityOf()}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), core
}

func memStressRun(t *testing.T, cfg Config, tr *trace.Trace, pol string) string {
	t.Helper()
	policy := map[string]func() steer.Policy{
		"OP": func() steer.Policy { return &steer.OP{} },
		"VC": func() steer.Policy { return steer.NewVC(2) },
	}[pol]()
	enc, _ := runEncoded(t, cfg, tr, policy)
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

func TestMemoryStressDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-stress sweep")
	}
	traces := suiteTraces(t, 5000)
	seen := 0
	for cname, cfg := range memStressConfigs() {
		for _, name := range memStressNames {
			for _, pol := range []string{"OP", "VC"} {
				key := cname + "/" + name + "/" + pol
				got := memStressRun(t, cfg, traces[name], pol)
				if *memDigestPrint {
					t.Logf("%q: %q,", key, got)
					continue
				}
				want, ok := memStressDigests[key]
				if !ok {
					t.Errorf("%s: no recorded digest", key)
					continue
				}
				seen++
				if got != want {
					t.Errorf("%s: digest %s, recorded %s — an observable outcome changed", key, got, want)
				}
			}
		}
	}
	if !*memDigestPrint && seen != len(memStressDigests) {
		t.Errorf("checked %d digests, table holds %d", seen, len(memStressDigests))
	}
}
