package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

	"clustersim/internal/engine"
	"clustersim/internal/workload"
)

var digestPrint = flag.Bool("digest-print", false, "log the current memory-path digest table instead of only checking it")

// digestSetups are the 10 configurations of Fig 5 (2 clusters) and Fig 7
// (4 clusters).
func digestSetups() []Setup {
	return []Setup{
		SetupOP(2), SetupOneCluster(2), SetupOB(2), SetupRHOP(2), SetupVC(2, 2),
		SetupOP(4), SetupOB(4), SetupRHOP(4), SetupVC(4, 4), SetupVC(2, 4),
	}
}

// memoryPathDigests pins SHA-256 digests of engine.EncodeResult for every
// quick-suite point at 20,000 uops under every Fig 5/Fig 7 setup and every
// other policy of the determinism suite, keyed "simpoint/clusters/label".
// The encoding carries every Metrics counter (stall cycles, LSQ forwards,
// cache levels, per-cluster occupancy) and the steering-logic complexity
// counters, so a rewrite of the core's event scheduling or memory path
// that changes any observable outcome — not just cycles and copies —
// fails here. The table was recorded before the park-and-wake memory path
// and fast-forwarding of idle cycles, which are required to leave every
// digest unchanged.
//
// Regenerate (only on a deliberate model change, bumping
// engine.ModelVersion and memoryPathDigestsModel with it) with:
//
//	go test ./internal/sim -run TestMemoryPathGoldenDigest -digest-print -v
var memoryPathDigests = map[string]string{
	"gzip-1/2/OP":          "9ab4ba57a1ba61de7927a7f32d691657b2813d1b4b4a70d3201a459eb654c4e2",
	"gzip-1/2/one-cluster": "e5c3530a624195c3d50d28ffe96f3066c93a8cc90e630a31d9cb61793fd5f101",
	"gzip-1/2/OB":          "704206e4549bb61ae9d0345d9cb3f05530f3b092963eb7a6e34ab6f798c5ecea",
	"gzip-1/2/RHOP":        "6419826c775f2e6d9a5d37fb9360b51aece39e9cf058faa185d2783addd4bc49",
	"gzip-1/2/VC":          "ed7a4c1b4ee37e1a1800bad90e12af8b8925bce6796b23b27f6860d38562e4f6",
	"gzip-1/4/OP":          "544ef8579319d30e83571e5dfc4a23c4a2f65d67ca5faf69ef08410fac473b77",
	"gzip-1/4/OB":          "abe3576bef6d530ae7b0cfa37121a3e2d84579787675291daf93eea6e1cc7dd1",
	"gzip-1/4/RHOP":        "f34d5e23bb7594803426fef5b87234ce62323feb05c446f92fc76dd62ba904e0",
	"gzip-1/4/VC":          "999be2b043a27bd9018ecbd021691934d98d359041709a9573318c4217a4c9b8",
	"gzip-1/4/VC(2->4)":    "6e37e3b2cd772866f40341e180f246d57d6034fdd0df574916c7e21b080c6793",
	"gzip-1/2/OP-nostall":  "b16594e2531472103c93878ea957ce64662229a3775f73b6fcb990cd19c5119c",
	"gzip-1/2/VC-comm":     "9f2c88097b2918148028cb836e77128eeb519ca0ecb29fdddb4840d68b942d17",
	"gzip-1/2/VC/chain4":   "9d9d6cee7d3e2a3aab43d9bc753e4a2e5ba01a70d9ce9d537ce8b45061eac7a0",
	"gzip-1/2/ADV":         "33fee8391d7850b7fcba86d59357e411d2c6c6595983bf65d1bf4df048d5f7f2",
	"gzip-1/2/LC":          "f301460be78f523b25e8b939788b7d85fc64107ac8e7ac67ca306a887756d381",
	"gzip-1/2/SLC":         "a1d3b6465bcfd880eed2c755ab1d4356bc5b31c87715c5b0ad0d5f9ffd4f3f0f",
	"gzip-1/2/MOD":         "a0270c7901eecc47b47e206fec38b9d8385e13674e67fd6e38fd4e80af5f933d",
	"gcc-1/2/OP":           "54bbcd27f7143e2982570821c67a2aec9909001134c31acaca8f873c79438b07",
	"gcc-1/2/one-cluster":  "a0870a408a67a61f53ed77769f7ea1797a0cf623649c34ec7d054502a026e4bf",
	"gcc-1/2/OB":           "f33c6f84bbb2f910f1a58ecb2eccff1b3159ddeddbcfeaf86f64abfd854974e0",
	"gcc-1/2/RHOP":         "5f3e0f9bce0ce69c8cd1f0b4b4ca42ce267541be0bc28b05f69d0edd82f2b232",
	"gcc-1/2/VC":           "2fcbf37fba8334111dc9f7b19d50182945c9568928d93f095983cff0a73fe351",
	"gcc-1/4/OP":           "c6bef275985136f5520d971787ad2615618d08541618140b502f871c56ffd923",
	"gcc-1/4/OB":           "095bd6bf2c202e5d030902a4f19bdf577a533f6658fa9e34b28c61cfbf904bc3",
	"gcc-1/4/RHOP":         "043fb19612edd6ab71a0e907d5fc0c346f054630dd8ec918af790d73bc3d5b6a",
	"gcc-1/4/VC":           "a2b87ed185f0cd73498b6354b9fad1ea0035f95644034f6d33ec8c6fb2ee50c9",
	"gcc-1/4/VC(2->4)":     "68fecb7986abb1f763feef8f01733eba88ccdbd9a772aec5f78f9821d73abece",
	"gcc-1/2/OP-nostall":   "20e7bfed42881a8da47bd557ef462b8b80ea5a59281622b6a9c3773682e97572",
	"gcc-1/2/VC-comm":      "48e7eabf0d7cb969a52f68323a2859a67c6b51caf9aceed001c04361cc145d65",
	"gcc-1/2/VC/chain4":    "e65d57b501e5c4eaff9c774ebacaabc49ab05badc280bbb8ffe65d8279f3643a",
	"gcc-1/2/ADV":          "6f18b40caf90973d1595bfa6b1253a2b4c07113ca8f00b3056f1a69807d06804",
	"gcc-1/2/LC":           "41d69d2554255f54b876676b6e3d5cea1ea8c2d65a75a2d2868fd0224675847c",
	"gcc-1/2/SLC":          "022954a6321e6979033582e646ee7de487ac2836fc8648ad56b48d74dc0636bb",
	"gcc-1/2/MOD":          "639495d077a4249715b5430183c7885f0fe5b47265b69e68a66538c77d3a8c20",
	"mcf/2/OP":             "a6eb41242470225542772c0a19795674a276b9249ce03bffe0d5f82f518d3fdc",
	"mcf/2/one-cluster":    "b5658deb7d0da489dddf710db9811108d7f33056450b2f5ebac407fa52346041",
	"mcf/2/OB":             "c04c79b495e262075c47cb08ec7c014da74e9ac40b8d85e7d96198adad286a33",
	"mcf/2/RHOP":           "f46e272c86c9b1a6a1c3057bc75e83d3873c3195dee1a4f4b0692636b058cc14",
	"mcf/2/VC":             "0360f575047da002bb6f9596fa00815e73a29c62e51abb651dff49267ff9d8b7",
	"mcf/4/OP":             "e7f48b30ce9d44f3e8381c6b88d6ee9a89e8089413bc86d4eea4e42431dd03fe",
	"mcf/4/OB":             "51ff6411d6095a0a5a9140b1235cc0f831b46ca50ee4eb745ef7d6d1d677ae0f",
	"mcf/4/RHOP":           "1157b7702bfd2019c58e9c523c2764e103d284f087d7d7c3c341738d996178e8",
	"mcf/4/VC":             "863adf1e6b2979b10770f13aac3b68899c6d667527a777fbe6bedbb64553a135",
	"mcf/4/VC(2->4)":       "22b8d31dbfb6a95ccee4ca9eece16b45f60f970d72094db4692073a865c12bf0",
	"mcf/2/OP-nostall":     "d83fda4f2dc3a49c6a1b789de497e24521e9684d33f3dfd51ef4f7b665951fa3",
	"mcf/2/VC-comm":        "5228d5d2e75da4d3feaf6b52cb890ce5a47e1de3ad08b12cb2c28baaa483f2e4",
	"mcf/2/VC/chain4":      "450085016ce51354ab782f158a27ae0544a9c0ba386be505d6600f4f242be652",
	"mcf/2/ADV":            "f3c1708d7f4144599da0edd9a51dc37663aa0e28f65e219d15e377963001a862",
	"mcf/2/LC":             "a03ae5ee96f92a05e5a5285fccc124d40d2367f354c9397c28079ee7ce78e144",
	"mcf/2/SLC":            "856fb65c71bdcbadc2811d140c167ed845469ae51c6049d3a26be868473d208d",
	"mcf/2/MOD":            "76ee118ad11f16360ef64b124bdb0bc9377dac93b5d5b1c05d0fee8bd1017b20",
	"crafty/2/OP":          "acced0d09097bf2334d89bbaa5edf19d497d3051caf519625b61e287b4795949",
	"crafty/2/one-cluster": "7984d0df4d698fc60422d258b71216c5f127dc3344512639e532d5f60fa95430",
	"crafty/2/OB":          "0cdf8362ae0be60d76dd0007fe8ee955e943c4c8e4c93cfd729e75db014556e6",
	"crafty/2/RHOP":        "97a41cd418230238861d0042ccaefc0b6d4c41c28a60acc060ea16214ce2449a",
	"crafty/2/VC":          "4b2c514fb685c39a0316bff91227f7467a5b37f26af69d9daab26dffbefa44d6",
	"crafty/4/OP":          "c49053e06a4673f95f823068b9b7bef882d1ab35a9d3dc18cf9b0d202ecb4399",
	"crafty/4/OB":          "32ed2f56963052929557feabaf363b1704586507270efb5eb1c2a67ea84bd281",
	"crafty/4/RHOP":        "4d4493fea13fae65affea853337642944ea4222e5be41eac46df7a2ef557fd8e",
	"crafty/4/VC":          "41d30b92830740fcb5c9a3e83f1bbb31d369784b14808f4e07fabb584c29358f",
	"crafty/4/VC(2->4)":    "6368b6d9ebb3cfdd5d7aa6eef1bbce2897d88e611069a0eac8cc57efb7cad2f7",
	"crafty/2/OP-nostall":  "dc82446ad9903eeef1d6b8c110c14cf73fdb36ea95eccaa2b87378690e54cce1",
	"crafty/2/VC-comm":     "46f52e1e6bedeaded7d5fcf0baf104e81074e0436ec7de10dd8ea14d01c36760",
	"crafty/2/VC/chain4":   "8805ab99ff2bba8c080c6b0e04136b408ec94706fe1a316bdc41a0d0418a8354",
	"crafty/2/ADV":         "391fe4e9f8ca5c8d19a3ac7164b7fa0f95a59f4ba87f2bd0af7efaabcc940aa0",
	"crafty/2/LC":          "80e596f084132d62aac08efb2973d4913f03756542692ad654118f84bf038706",
	"crafty/2/SLC":         "9d475bd7bbb71adeda5ea0dfcfaea2018c9380f481f1722592d243fa3af30b5f",
	"crafty/2/MOD":         "8b0ac81d2181bedbc725c624c14176f71aef4c283bb4dbd2ee789d680eb37cf1",
	"swim/2/OP":            "f5fd0722d66707a0cd6d8e4ff8c5f1c5c91bf74c4e6785386bd8cb06ab57e60a",
	"swim/2/one-cluster":   "09f6c793c5926886ffafd8e2b9e6f32ad2a68a56a86de6426f3ef4f3b83a156a",
	"swim/2/OB":            "53aad6d3673a453b3875733ba9ba3503379519fea98539bcf2a9f3e4e944af90",
	"swim/2/RHOP":          "f489411f3dde55739954b6b686d64f45b1dbb234091affbfd59c5693d86bfcf4",
	"swim/2/VC":            "05d2f00eb8b7eb43cea48e6af201cd3ccfa852b30cfa3c08ecedbdd6b333e834",
	"swim/4/OP":            "9de9b8a3d094027c60408e4d7838a05acc5c3148dba9fef3234a0f1e70e3cee9",
	"swim/4/OB":            "b8ad807d78f83ca4bc659f1d564d4231ef8ff1a2e2dd1857155367f01d17bff0",
	"swim/4/RHOP":          "0ca83dd1a014ed8e58c47ce90a63563518a63e6518dd42b0075a5fc5f2c938b8",
	"swim/4/VC":            "9778b81c449be1c46d74da81228a3f3f1f27b25879004057b02a7a6fc64178af",
	"swim/4/VC(2->4)":      "800430e3a00a076f331e79b8355392a305fde5e3178ab5f677d4538933a6fefe",
	"swim/2/OP-nostall":    "3653c09541c9bc2ca7944951b9ef71fa554746c0946779ae027bc089f76b798d",
	"swim/2/VC-comm":       "d414d01758636d98b065c6f7434e21b5f79506d23c7a71148e3746dba33a2b68",
	"swim/2/VC/chain4":     "316f541ad4e2a7492a14dfd877bad65ca8566cee34ec5f78d1ef975a46ff8f3f",
	"swim/2/ADV":           "6f90cf71dd6a27bca28a28c3c7d66430d7d0c11bede5ad8343c1642626cf0f50",
	"swim/2/LC":            "8bbd329a26da7225585b4a54a854755de249e47e46cbc9e423b805ec5ebd7e7a",
	"swim/2/SLC":           "d115bdb864d24535c5b171946e806610dfe57363addce9d37babb09082804536",
	"swim/2/MOD":           "c4e35dd82c9bef25f8ce483f1243dfd33a4d228c64d8c94c50ffc7022dab532e",
	"galgel/2/OP":          "fe70bc87106404cb8a0253c7cd26e70f826c5a2f5eaf71d8c155e5233641b300",
	"galgel/2/one-cluster": "5abfc208d1532f2be2600deceac5ba10ef3e46db95c018b5e624ee3eb7d97db1",
	"galgel/2/OB":          "ffb6455602bc8e0ce86583a05947f36b8f3617b2966d202341e6d90531e3bb89",
	"galgel/2/RHOP":        "446b77eb8d20412e974d9e029cfb52283b6edfd96bfdfb016ec31fcf6a61bcb0",
	"galgel/2/VC":          "c4e564ae7d234971ae0db8846251496612738ae751d3b254e24dfc20a4beff44",
	"galgel/4/OP":          "a71c3d6c5046ee152bcc48aa335ede67988c611324803cd2bbce9243e03b74be",
	"galgel/4/OB":          "dfd5989cc7bb8634a2e8d4333a79314c02229ddc4a03b4679d621b9325230ad7",
	"galgel/4/RHOP":        "704e9adcf14c9eb12ed26215a5e08ea57f8f621c1c9241c5d0bfb98755678787",
	"galgel/4/VC":          "98bf3f52567d2aa724c93fa256f60f594c0ea57d23306d65e475a2316329919d",
	"galgel/4/VC(2->4)":    "d109dfa871136604f617759b5d0188e188221c383645afc9d6cdce821f12e462",
	"galgel/2/OP-nostall":  "f23c63dee1ea454d83bae7ff16f4f81758c5a6351fa1e93721b10d605dad642e",
	"galgel/2/VC-comm":     "c2bc431be27a0552d3d9fd47e2dccf946ad4085315742ad5aaddad6f63fd5197",
	"galgel/2/VC/chain4":   "aa5f1d660d612b9b3d4a5b457711e859c76c3b69ed9e2d2cb1330769a8387610",
	"galgel/2/ADV":         "5365e0e4a20c36b433c29ad0aac47bdda4e5a1ddefc9df7a37a1245a75cf6056",
	"galgel/2/LC":          "42451c56647b7cf4948b303401832ba899112752107dce8a2fa3c8e2904ca17b",
	"galgel/2/SLC":         "4a346a38a15e64c21380b03e014e425a896da66389dc945e2b92f1642dd52e89",
	"galgel/2/MOD":         "986ce3444b53bf9f358811baa3cc65cd68b1ffa70eae01cf25f95b7036e6b468",
	"art-1/2/OP":           "34f70f5ed99f8c75ed28d3fdfb6b98d78a3d558ed04dbbd6204d26820e70adaa",
	"art-1/2/one-cluster":  "24c5f5125b896e1c3791a3a099c627e45f1cf908ba8850b8b0dfe65fa04b062c",
	"art-1/2/OB":           "478b3ba58eb26acf02c56f525854afa2ad85bae0aa8f0548db084961ae4b5c8e",
	"art-1/2/RHOP":         "28b7b64894e9825dd2b9de2405db28268c5619e85e4b32b8e90aa37793d8c061",
	"art-1/2/VC":           "e563cf4894bc4c6dc580260f6fdc24eb29f2840b21585ed134f1f31cac9a820e",
	"art-1/4/OP":           "0dc9a692d5a26150301290924406d450503261c0ce622677fb8a2f0c538059b8",
	"art-1/4/OB":           "4cce789c9a6281cbeefd976a8c15aad62ce62b179c2bc681bbe2be832f92cf2a",
	"art-1/4/RHOP":         "4347f61b7f8e4167f52dd74146c98da0f90c75473b4cb8d00d431f2047502ddb",
	"art-1/4/VC":           "6827e06e367a2657a7c07828cf3f5010804dfd9084de8f72e92a7cc8d4d4c135",
	"art-1/4/VC(2->4)":     "07e3fe22b64569292c6d0947e2e1b1bc03269bf6b74b9ffd6a5ed762d3f09eed",
	"art-1/2/OP-nostall":   "d045f617b974ea475f9d07229282ec3c65d01a1216cf1b6a040cb3061a509a4c",
	"art-1/2/VC-comm":      "71738af24fb0f8053f93cb17b21a9f513dcbdf89c2705605f9099fbf0978214d",
	"art-1/2/VC/chain4":    "784cf18a410670af1570639cbb51e5ea1e1462609639878bfc8203932d774bd4",
	"art-1/2/ADV":          "6bd80fde3c65efc13a062e5cf298baae2f91df24c5fe18cb2040c65c844144af",
	"art-1/2/LC":           "083bc8aa44f7ca4d8305aa44048004d7b36f746533ac3b1260c9d86191ac1a63",
	"art-1/2/SLC":          "c9680a1bdd05cee00c5a041aade53028f54808f03e3c9086168ac58472bad9eb",
	"art-1/2/MOD":          "f7672fb72026ba0f8da8e0ddd0488bfbfb5fe6e7afa4b8e1957c3fbe7bb39d3f",
	"ammp/2/OP":            "4a96ba4ec0e67f954713456c8bf18226bbafa6370d3ab952c3bee4e217ece40a",
	"ammp/2/one-cluster":   "1cffb31a588d0a5a9f1100f6a9e3249c305c1d2052e3d886105b8206ddaf86cf",
	"ammp/2/OB":            "940aad4b63925bf4df10df64af0d19c324e9823bdb596ed0189dd57958db757f",
	"ammp/2/RHOP":          "d72b0dc11fa823bc8e2904a122abefcb43a34abb488232f1f1a345344a43f91e",
	"ammp/2/VC":            "05da2ab9946756ad2814a544adae38c8c1f741d4771da90db0931d3157385263",
	"ammp/4/OP":            "aea4aeaa18d2ffc2d5826d9622c043a6bcf16f77deab163f45dfdfede3a84d7a",
	"ammp/4/OB":            "c9fa60ec197741774cf9ba99d7b02df397b5037ba624cf96a04a339de8afc483",
	"ammp/4/RHOP":          "59aec1736683743b5eca03b22f0c74b1aecf228f8319e9f41b2473397e244b46",
	"ammp/4/VC":            "1141eda925b3a62e78073375a0111fdf12cade3c505b7efa24fcd820efc177bd",
	"ammp/4/VC(2->4)":      "60c1090583b0bd9e8d25fbe507aa3a53f76501689e7e1cd0cfcfcb19628499a3",
	"ammp/2/OP-nostall":    "4c7cead78891fdf8667a1db54bac5aad955a0b653373fd65f377a08da6402e3f",
	"ammp/2/VC-comm":       "73d2c7c4fbe1c5d7b92ebf6e7ed92330996a8757d07095ab8c82286d30971b4e",
	"ammp/2/VC/chain4":     "d5b198d4ed9d43c17e245685ea89f49c64430e57692bc0b7ff2a440f1192189b",
	"ammp/2/ADV":           "4029590e49aeca3b43c06d555e66eca84d0bb48231c6681e7df10625bf949b85",
	"ammp/2/LC":            "520391078a0831a17c0e409e537c2fa2d04443aef535e9da2acd74cd5e2df449",
	"ammp/2/SLC":           "bc2de9e1fed08c1d21a665c76a980e3d188178feb6be84aef56c8cb52f69e8ae",
	"ammp/2/MOD":           "0cf4a344aa790fba5ec148e1271668c9a48d3dc23fb4d9af14bfa1265c6b7cd8",
}

// memoryPathDigestsModel is the engine.ModelVersion memoryPathDigests was
// recorded under.
const memoryPathDigestsModel = 1

// The golden tables pin the timing model's outcomes, and ModelVersion
// keys every stored result by the model that simulated it: a regenerated
// table is a model change, so it must come with a ModelVersion bump, or
// warm stores keep serving results of the old model.
func TestGoldenTablesPinModelVersion(t *testing.T) {
	for table, v := range map[string]int{
		"memoryPathDigests": memoryPathDigestsModel,
		"goldenExpect":      goldenExpectModel,
	} {
		if v != engine.ModelVersion {
			t.Errorf("%s was recorded under model version %d, engine.ModelVersion is %d: bump both together",
				table, v, engine.ModelVersion)
		}
	}
}

func TestMemoryPathGoldenDigest(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	sps := workload.QuickSuite()
	setups := digestSetups()
	seenLabel := map[string]bool{}
	for _, s := range setups {
		seenLabel[fmt.Sprint(s.NumClusters, s.Label)] = true
	}
	for _, s := range determinismSetups() {
		if !seenLabel[fmt.Sprint(s.NumClusters, s.Label)] {
			setups = append(setups, s)
		}
	}
	res, err := eng.RunMatrix(context.Background(), sps, setups, RunOptions{NumUops: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, sp := range sps {
		for j, setup := range setups {
			r := res[i][j]
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", sp.Name, setup.Label, r.Err)
			}
			enc, err := engine.EncodeResult(r)
			if err != nil {
				t.Fatalf("%s/%s: encoding: %v", sp.Name, setup.Label, err)
			}
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			key := sp.Name + "/" + string(rune('0'+setup.NumClusters)) + "/" + setup.Label
			if *digestPrint {
				t.Logf("%q: %q,", key, got)
				continue
			}
			want, ok := memoryPathDigests[key]
			if !ok {
				t.Errorf("%s: no recorded digest", key)
				continue
			}
			seen++
			if got != want {
				t.Errorf("%s: result digest %s, recorded %s — an observable outcome changed", key, got, want)
			}
		}
	}
	if !*digestPrint && seen != len(memoryPathDigests) {
		t.Errorf("checked %d digests, table holds %d", seen, len(memoryPathDigests))
	}
}
