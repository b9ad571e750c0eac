package build

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"xsketch/internal/xmlgen"
)

// TestXBuildGoldenCatalog pins the exact output of small XBUILD runs: the
// sha256 of the persisted catalog bytes and of the element-to-node
// assignment. The determinism tests compare two builds of the same code;
// this one compares against fixed hashes, so a change to how splits,
// histograms or scoring are computed that alters any output bit fails
// here. A deliberate change of output must update the hashes and say why.
// The last two cases are the synopses servebench serves: a full Run at
// served scale and budget (steps 0), so document-scale paths are pinned.
func TestXBuildGoldenCatalog(t *testing.T) {
	cases := []struct {
		name     string
		dataset  string
		scale    float64
		steps    int // 0: Run to the budget
		budget   int // 0: unbounded
		backward bool
		catalog  string // sha256 of catalog.EncodeBytes
		assign   string // sha256 of Assignment() as little-endian int32s
	}{
		{name: "xmark", dataset: xmlgen.XMarkName, scale: 0.02, steps: 20,
			catalog: "7cbcb0129b96d893c16bdbed6722683f467b7188291ef987408053e8f2f728de",
			assign:  "261c2dc4b95586ef350d6cd61e5667807f20f7741fca340adbda45d2e90b029f"},
		{name: "imdb", dataset: xmlgen.IMDBName, scale: 0.1, steps: 20,
			catalog: "21e66f6e5942f229a4050198bbe3baa6ebf9e504d879a6f1ca511f77ba87732c",
			assign:  "a98ebb0480584869c2ae4d9d1858ca0b0002455faf5c7a5f2a55971454fd072d"},
		{name: "sprot", dataset: xmlgen.SwissProtName, scale: 0.05, steps: 20,
			catalog: "b7b284acdd27be6c0179bfd9976bd9dee03bd305bb2cb16866b77930b6853944",
			assign:  "d228dff1cae6e035e612ed040ec040737669a64581515a10ef464e25909e9775"},
		{name: "parts", dataset: xmlgen.PartsName, scale: 0.05, steps: 20,
			catalog: "9f2b8531bb6a0ec5f9ba02df141ceeef0916fd6796e8bd0ad3580dc577245483",
			assign:  "7f0d04ffc9fb54f00e7dd1d218681d9396a74ba55a2a08f2697b9bfc611529eb"},
		{name: "imdb-backward", dataset: xmlgen.IMDBName, scale: 0.02, steps: 20, backward: true,
			catalog: "f491edb5aeb30e0f710a6b7267e5d8214adeacd14434c6b585013f8e9438138d",
			assign:  "35db5cb8c99ae5fd88ccbca535b5de27837636ea8e15ce91a841964a9e87b1b1"},
		{name: "xmark-served", dataset: xmlgen.XMarkName, scale: 1.5, budget: 51200,
			catalog: "0f7c8aabcd038e386e33ce86862fcfbfd6c7b20b9dad9f07086374de422b1c64",
			assign:  "fb2315bba8c980b4f3ad37be6f048f6289ff505744a7b9ee6971b0b73f2e3bde"},
		{name: "imdb-served", dataset: xmlgen.IMDBName, scale: 0.5, budget: 51200,
			catalog: "7f86697866bf2e09f0f51c19845f491faacd9552ada60ff76cc480c26b1811ce",
			assign:  "1d2e296155cb23d0bd1456f34bb735e9f85979199f7d3199efb2e76898e5b111"},
	}
	splits := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := xmlgen.Generate(tc.dataset, xmlgen.Config{Seed: 1, Scale: tc.scale})
			opts := DefaultOptions(1 << 30)
			if tc.budget > 0 {
				opts = DefaultOptions(tc.budget)
			}
			if tc.steps > 0 {
				opts.MaxSteps = tc.steps
			}
			opts.EnableBackwardExpand = tc.backward
			b := NewBuilder(doc, opts)
			b.Run()
			for _, st := range b.Steps() {
				if op := st.Refinement.Op; op == OpBStabilize || op == OpFStabilize {
					splits++
				}
			}
			st := stateOf(t, b.Sketch())
			sum := sha256.Sum256(st.encoded)
			gotCatalog := hex.EncodeToString(sum[:])
			h := sha256.New()
			var word [4]byte
			for _, id := range st.assign {
				binary.LittleEndian.PutUint32(word[:], uint32(id))
				h.Write(word[:])
			}
			gotAssign := hex.EncodeToString(h.Sum(nil))
			if gotCatalog != tc.catalog {
				t.Errorf("catalog sha256 %s, want %s (%d steps)", gotCatalog, tc.catalog, len(b.Steps()))
			}
			if gotAssign != tc.assign {
				t.Errorf("assignment sha256 %s, want %s", gotAssign, tc.assign)
			}
		})
	}
	if splits == 0 {
		t.Fatal("no run adopted a node split; the test does not exercise Split")
	}
}
