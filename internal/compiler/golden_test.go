package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/wgen"
)

// goldenDigest is the sha256 of a compile's objects and of its linked module.
type goldenDigest struct{ objects, module string }

// goldenDigests pins the exact output of the sequential compiler. A change
// to code generation, assembly or linking that is meant to keep every object
// and every linked word identical must leave these unchanged; a change that
// means to alter the code re-pins them deliberately, in a commit of its own.
// The "-nopipe" and "-naive" rows compile with the ablation options, which
// reach the list scheduler on every loop and the one-op-per-word emitter.
var goldenDigests = map[string]goldenDigest{
	"mixed12":              {"f12b99caeb41fe604c950a21ef45799842b43c0d5d18bb252bf08f051fe1ea93", "c77b551158ee02125f3381619bc1c2c0cbbf18df5a919ce8286110d955dd337f"},
	"wide12x4":             {"5aee23ffd88e13757df60921b3c5c2a583a33b023bcc0afb8368ac20da26f1c7", "ac4c977339b6b4757d7993c472f1a80cccb1dc9b421012dfb8452fc466d6f158"},
	"smallfuncs256":        {"9aca8b5df30cc019d51d99e3268740349dc091b296ed7459003ac5bf69f28099", "6d7e75053a6b58f7e463a2d823b22d49b8f1d062818ff58ddec216f39255525d"},
	"skewed3x6":            {"e2684f9484e9c6cdb1a97169daf5b01d05d11b66b1e7ebb99dec5010df7b1ae4", "4ac9729cdfe9ac2f6b2b05a02470bb7d2b6bceeb2399e7311a0397a94d502891"},
	"multisection-medium4": {"138a6ca97e0bbe93e1a9c261c7faae0a5fd1705705e7d5667d41446c6e1c343f", "f76622503052eb75042f5c7403c33d288f4ea1dee300767f9ff1a272066b7fa1"},
	"mixed12-nopipe":       {"1b221de620d3d93d6c901304329015ce55978d875f561b66934d27599459c47e", "565bec874e244ab2525ffe08f05003bb456fe152f26584b7ed485f71e27e864f"},
	"mixed12-naive":        {"7768d7583bffd0ba05c9aba54acf4764d88e851b1c626f649dbb40ea63c41190", "e7dd4e2e69c921178c61688cebcd28cb3efda843667ac23ae290af3d923e8a2c"},
	"random1":              {"d128c8370c78d19af30fb2adf6d6a8cda58f3defc60763b78f2218592dde7159", "15329560e7c6b73ebfd16c93157bf701663e78751ba243edf49d797cd844489c"},
	"random2":              {"16bc1434b5cf0e99364250be6dac49db7dd80f113cf7ad3063f0a05ae1bae459", "1203708711749fdcf6d55070516f5ae343fc750aaab52235d5518945489ffdb1"},
	"random3":              {"efc19057423169fbaec1d9cdbc4a6b4d8a5cac540c7cce5d8928f5426f554431", "1cf42ae4442ce1f97820fb9344d2155a42aac8f69ba827f939ce64144aa338b3"},
	"random4":              {"bcabd2d6b99a36323b396d12a66406216604da5fdc660f9b3ba453e18719230b", "0b60762d014b027bc5fa82e09e80a024539fb1d3171d01b22dec1cd762ece73f"},
	"random5":              {"a057943caeb1ec478c61c367179338bc52c9918a56ff394cfd71d131be6f0a74", "acfbb0b0c9e818557c6401fa210a0df62cd86854f4ea6ce7917a9fe6787fa8f9"},
	"random6":              {"2a09edaf0a553d00b365607c0035ceb0a0b907c30a94c6b5f1966e8e74e8ac5b", "ce84a09e141cba6f6f81b325f77e0444b77d7c23ac1d3e4f47503f6877ec1f1c"},
	"random7":              {"7f72858dd997b716e6d4dc77a3d34f2f10f8c79ca91c8c8427852536c7ac63ea", "cebe66dfb9428ce3cde4a8ecf0ef14927cb63d25fee7f3cc7e1e0ba8c03afa01"},
	"random8":              {"bbf13c889b375c3ec7ea9b97fe5622455a13502f199a0f0d14f8f0a0f00e2349", "c2c15213d56bf3c0452669e29e22600d96a09e6f10f74b4699414eb601e5abc1"},
	"random9":              {"4ba0626db23fb161f2c48cfa36dfe54d98e966f49d2f15ff074b7b179e289217", "c23edd7c87505fc97077676662105ce7652ba1035c0755336657a319a7be891d"},
	"random10":             {"e10ab900108165e159a0e25b6c8d7cd4fd1f64913bc6fe0f5f895175faaed1c2", "146cbbcff32fbe62b1b3303b70f9a6acf389ac720aef3dfe7e77d09842daaa2e"},
	"random11":             {"2b477b479fbb0fd217c2abce6ca3d0130a78450ffa3711c76dff63677b7cb813", "236cba932e0e2cbb30bbacffeeece5f1706075920204c1b66d00e467615f38e1"},
	"random12":             {"671f339c04f982e6d24e0c3da9e75b40b911bf303dc573b2b0f4a643195dba76", "66b2a4c8b66e059ff6a0a6f69dc48a823f6e471834518e07d9c2467f8dfb1fd6"},
	"random13":             {"975822d643e5636f743831a56106d1e0293725daaa08a4a8a8461d372717b035", "aad387971fcf110d11059034147cc5c55b62f1b126e94686e6f877194c3dc647"},
	"random14":             {"64c02f2d170ec67f0e21d342b974b10ed767a148290d8bf205378b4e88d95615", "22cf1ef7136fd8e4bb141a51666669f8a452678bc668c3e60b99ca1798abf335"},
	"random15":             {"e58f293fc9fa3d1c87538e7dd3665b366ad23ce644b273c5e40755b4a8e96fec", "8f649c502041f88b434b2d52feace7ff7e163456e4d521a72b49891b2ac4302c"},
	"random16":             {"12be49dbaf8caad16bc692c4f02db692b6bfe279fd0e82b4f89300915b3fc55a", "401ddd8a3c1d2c237d5ab314dcf4fec934b1f0b68adff5e70f35fabfd5226759"},
	"random17":             {"b96e79f102d163eb777f1694e87edbdcb8be666572ed0aacc831923594f4aa22", "4448f972fba7638ce4631d71bda22c83bd3fa661aac2776dff6996f364386c3e"},
	"random18":             {"dca8da4808e9d95dc9cf4d2a4a33077d8dd2d27303aa0e30d84b11877c9ba5bb", "28963374ac4d2349d6b6ecdf8ce6b6fa6d9bb1a500d79cb9b8b2cd7c8697e463"},
	"random19":             {"3de92723a05b6b0c1de65298db7136b20330ccad8598af53affab03b1c94e7b3", "7c0d671b9920cd0b6132233307790e02f9649d0990e7ab7b56669313df600766"},
	"random20":             {"8fbd563f63f24244352859a0b7ce8e799d2a72e14b5e3b1b59cf42da535d0485", "530a2b98096fa69e186512a5411f84d5c11529cbcdd9ed95fdc84a6a5d7703f5"},
	"random21":             {"5093306dae4e7995d4fc158e38dde3c26c68c1bcbb6e45d1dc499d1090bcabe4", "b967d672f08901ae6fe32411512f64075cbdc4e72ddd8f158d0ca85226c5a21c"},
	"random22":             {"7fe1842904b5689cf4669bb1ee1065b183067fcd787f739c47afe93ab98bfcfe", "5a34058d2e2413f366ca12dbd1c3f4ee79eb6289a46cf3ab9d47a5b5f36bf53b"},
	"random23":             {"15d90dc293cdb72e5f7f7db60d8697f5337c9c2d9934d1231a94b095794006c8", "6c0213095ea652f9df0a92fbd67a87ea89dc182fb48b3bd4590cb4d0a76c8564"},
	"random24":             {"af06de58416b2f24d5a3edb350d6b2828bf7979b6922e5f36c230e58038f376f", "49722cbb98d5c09d8c7153a127cb2cf972eeb9a8b3cf58291dcb2ff3149a5847"},
	"random25":             {"cfaadcde374df2e7cce1df1b1323d0de2f3f64d4e98afb4b8fb0a13c33a7bd0c", "80442dfe15e288ef83f670528ce2b637a14dee31cfded59a80adf52b1cef0dbe"},
	"random100":            {"fb4f00e701db7527638cfa215b733a2cad9cf894dce00a6e9c7812cada584a81", "e7b212f8adae40eb15e60e0f6d72e83ae63b4936196a76d7681b1a42c68ccdb6"},
	"random100-nopipe":     {"fb4f00e701db7527638cfa215b733a2cad9cf894dce00a6e9c7812cada584a81", "e7b212f8adae40eb15e60e0f6d72e83ae63b4936196a76d7681b1a42c68ccdb6"},
	"random100-naive":      {"f2387b01ff9abfb25363bc72b2c779b15fcfd50b389d7593bd6eea74311748b0", "47383a160498ad3606171f80c13bbe16684e3091051f8f5ba90739513a4ea56c"},
	"random101":            {"872513839de46bc6a5173aa4def7473722377e44e4db6d1efb7aa66dba330a22", "80b04fb737959d2cedd4b1e865a8bfbcdb849550da13af44285f2a636c4b61ae"},
	"random101-nopipe":     {"872513839de46bc6a5173aa4def7473722377e44e4db6d1efb7aa66dba330a22", "80b04fb737959d2cedd4b1e865a8bfbcdb849550da13af44285f2a636c4b61ae"},
	"random101-naive":      {"a7bc0c86cc8bdf3572f51c8faa3ddeee998e93e55fe1d4def1fb82eaa7935e6a", "5154950d2d2c63b1f7a1e66390e9809a355740d05f4706a34997b3e21911779f"},
	"random102":            {"44bb4b637e8bd8a7e98b3fe4f41934cebb5c2e0e657b9f34c06f1ba9a978638e", "2bc22fd864e89d94eace0b37b22e50843e6998393079b552eab4db6180fed16c"},
	"random102-nopipe":     {"44bb4b637e8bd8a7e98b3fe4f41934cebb5c2e0e657b9f34c06f1ba9a978638e", "2bc22fd864e89d94eace0b37b22e50843e6998393079b552eab4db6180fed16c"},
	"random102-naive":      {"913a63e7f669f4aa988dc2daf479f763b3dc1cbeb5ae94b7748583a84a6cce35", "62553be075b8e9ab7c547408fda12ca9cc878f9a8509d7064a2ddb9ce8ddb7a7"},
	"random103":            {"1c2fcb01fb4d3ab35e1c20a693f0fb17fb269faf8327ec55e71b0041aeb10d1d", "6af069c0e0d0a65580c8cc74847f0c0fa1cf6f4419c4ca0286d5350d8eaacf84"},
	"random103-nopipe":     {"1c2fcb01fb4d3ab35e1c20a693f0fb17fb269faf8327ec55e71b0041aeb10d1d", "6af069c0e0d0a65580c8cc74847f0c0fa1cf6f4419c4ca0286d5350d8eaacf84"},
	"random103-naive":      {"b0028c686e0f4f558dd9a21bde9905263dd73e4185484cc5797f4ed1c62a44b4", "44c0f84e7f84665e3023f02b6786eddaf0f4765e7e191343d24300101e58a9b6"},
	"random104":            {"d27359de72a8ae4d0e137725a1575124a046590eade3fc8d241525d9d288ee3b", "e528ee5965ca8437af7b37774a0ac0c16f7fce578cb1136e6cdd082d4e9cb875"},
	"random104-nopipe":     {"d27359de72a8ae4d0e137725a1575124a046590eade3fc8d241525d9d288ee3b", "e528ee5965ca8437af7b37774a0ac0c16f7fce578cb1136e6cdd082d4e9cb875"},
	"random104-naive":      {"f5fd5e1a36472fc0cb814bca4c0c6fb7e8c074a152f74674ee4590b21e80709b", "ca92430c82aa481ed5aa0e66705e936ffce7ec9e1579dfa9bc795c4b16038d5d"},
	"random105":            {"8864e5716ab719e8f42c4ed73a59975b5dadca7fb3bae2c38aa01df752c93b05", "78c711eae0219e6600e18a2ea5334f12d2eb0ef347b21e13de2a70efed328f4b"},
	"random105-nopipe":     {"8864e5716ab719e8f42c4ed73a59975b5dadca7fb3bae2c38aa01df752c93b05", "78c711eae0219e6600e18a2ea5334f12d2eb0ef347b21e13de2a70efed328f4b"},
	"random105-naive":      {"6d699bbc34579b67995264646152f3706a67dcc96854a328346862d7babe4e60", "38fd0b8ae3c2c512093e2fb9639bd5200f95056a3252549400a67c84ec624f20"},
	"random106":            {"c03e3a289bba0c028882807dd16c73edda6ebb70b9baad8cce08f17ebc1a62eb", "d436cafe21aabd901ae04de61a62e73c6d50d3b7517c4053b9def557453e49e8"},
	"random106-nopipe":     {"c03e3a289bba0c028882807dd16c73edda6ebb70b9baad8cce08f17ebc1a62eb", "d436cafe21aabd901ae04de61a62e73c6d50d3b7517c4053b9def557453e49e8"},
	"random106-naive":      {"f5599a2a41a66dafeafdcd4e5a5919afd2836ebc7c10d40e070293b7c8846e70", "f04b1a78fdfe5036a381754e11b02a95e2022d5b90c61f69ad5faf92fb2f5b35"},
	"random107":            {"cef894ebf08506d047ad8996b117b1510e0ee8481f7e88328b3f8528fb70ecac", "31c4ac6b7215cf824dd12905ccd63894c1c016eb9e25d060c70cab8d40ced038"},
	"random107-nopipe":     {"cef894ebf08506d047ad8996b117b1510e0ee8481f7e88328b3f8528fb70ecac", "31c4ac6b7215cf824dd12905ccd63894c1c016eb9e25d060c70cab8d40ced038"},
	"random107-naive":      {"c1a6035d520fc22f9739d7a20fee94261b5c90a15bdcbcd7c4334eab05c8a117", "936d5ccea0952ff371f59f234addf7f1209606af25f89eabbe5b3bfc4b36cfbb"},
}

// goldenCorpus returns the programs goldenDigests covers: the wgen shapes the
// benchmark workloads compile and the random differential programs.
func goldenCorpus() []struct {
	name string
	src  []byte
	opts Options
} {
	type program = struct {
		name string
		src  []byte
		opts Options
	}
	corpus := []program{
		{"mixed12", wgen.MixedProgram(12), Options{}},
		{"wide12x4", wgen.WideProgram(12, 4), Options{}},
		{"smallfuncs256", wgen.SmallFuncsProgram(256), Options{}},
		{"skewed3x6", wgen.SkewedProgram(3, 6), Options{}},
		{"multisection-medium4", wgen.MultiSectionProgram(wgen.Medium, 4), Options{}},
		{"mixed12-nopipe", wgen.MixedProgram(12), Options{Codegen: codegenNoPipeline()}},
		{"mixed12-naive", wgen.MixedProgram(12), Options{Codegen: codegenNaive()}},
	}
	// The seeds and input counts TestRandomProgramsDifferential and
	// TestRandomProgramsAblationsAgree compile, the latter under each of its
	// ablations.
	for seed := uint64(1); seed <= 25; seed++ {
		corpus = append(corpus, program{fmt.Sprintf("random%d", seed), []byte(randomProgram(seed, 6)), Options{}})
	}
	for seed := uint64(100); seed < 108; seed++ {
		src := []byte(randomProgram(seed, 4))
		corpus = append(corpus,
			program{fmt.Sprintf("random%d", seed), src, Options{}},
			program{fmt.Sprintf("random%d-nopipe", seed), src, Options{Codegen: codegenNoPipeline()}},
			program{fmt.Sprintf("random%d-naive", seed), src, Options{Codegen: codegenNaive()}})
	}
	return corpus
}

// digestOf hashes every function's asm.Encode, length-prefixed and in
// declaration order, and separately every linked cell: its section, its code
// words slot by slot in the W2OB slot layout, and its DataWords.
func digestOf(res *Result) goldenDigest {
	objs := sha256.New()
	var n [4]byte
	for _, fr := range res.Funcs {
		enc := asm.Encode(fr.Object)
		binary.LittleEndian.PutUint32(n[:], uint32(len(enc)))
		objs.Write(n[:])
		objs.Write(enc)
	}
	mod := sha256.New()
	var buf []byte
	for _, c := range res.Module.Cells {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(c.Section))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Code)))
		for _, w := range c.Code {
			for _, in := range w {
				buf = append(buf, byte(in.Op), byte(in.Dst), byte(in.A), byte(in.B))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.DataWords))
		mod.Write(buf)
	}
	return goldenDigest{hex.EncodeToString(objs.Sum(nil)), hex.EncodeToString(mod.Sum(nil))}
}

// TestGoldenObjectDigests: every object and every linked module of the corpus
// is byte-identical to the committed digests. On a mismatch the test prints
// the new entry in the form goldenDigests takes.
func TestGoldenObjectDigests(t *testing.T) {
	for _, p := range goldenCorpus() {
		t.Run(p.name, func(t *testing.T) {
			res, err := CompileModule(p.name+".w2", p.src, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := digestOf(res)
			want, ok := goldenDigests[p.name]
			if !ok || got != want {
				t.Errorf("digests differ from the committed ones; got\n\t%q: {%q, %q},", p.name, got.objects, got.module)
			}
		})
	}
}
