package check

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vir"
)

// loc pins a diagnostic to an exact code + fn/block[idx] location, so
// the corpus asserts not just that bad modules are refused but that the
// report points at the offending instruction.
type loc struct {
	code, fn, block string
	idx             int
}

// TestAdversarialCorpus runs the checker over the hand-written .vir
// corpus: each file models one way a hostile module author (or a buggy
// instrumentation pass) could try to smuggle an uninstrumented
// operation past admission.
func TestAdversarialCorpus(t *testing.T) {
	cases := []struct {
		file string
		cfg  Config
		want []loc
	}{
		{
			// Fully instrumented code — including masked values
			// flowing through mov, select, and both arms of a join —
			// is admitted even under the strictest policy.
			file: "clean.vir",
			cfg:  Config{Label: 0xCF1, AllowImport: AllowList(), AllowIO: AllowList()},
			want: nil,
		},
		{
			// Redundant re-masks of one pointer (in a loop, across a
			// diamond, around a call) and repeated indirect calls
			// through one checked register are admitted: redundancy
			// is safe, only a missing check is refused.
			file: "redundant.vir",
			cfg:  Config{Label: 0xCF1},
			want: nil,
		},
		{
			// A mov of an unmasked register into a store address, and
			// arithmetic on an already-masked pointer (add 0 included),
			// both destroy the masking proof.
			file: "launder_mov.vir",
			cfg:  Config{Label: 0xCF1},
			// CheckModule sorts by (function, block, index), so
			// arith_kills_mask precedes smuggle despite definition order.
			want: []loc{
				{CodeUnmaskedStore, "arith_kills_mask", "entry", 3},
				{CodeUnmaskedStore, "smuggle", "entry", 3},
			},
		},
		{
			// Masked on one branch, raw on the other: the join is Top
			// and the store in the merge block is refused.
			file: "join_unmasked.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeUnmaskedStore, "half_masked", "done", 0}},
		},
		{
			file: "missing_label.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeMissingLabel, "f", "entry", 0}},
		},
		{
			file: "wrong_label.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeWrongLabel, "f", "entry", 0}},
		},
		{
			file: "raw_ret.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeRawRet, "f", "entry", 1}},
		},
		{
			file: "raw_callind.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeRawCallInd, "f", "entry", 1}},
		},
		{
			file: "inline_asm.vir",
			cfg:  Config{Label: 0xCF1},
			want: []loc{{CodeInlineAsm, "backdoor", "entry", 1}},
		},
		{
			// Port I/O outside the allow-listed driver function.
			file: "io_policy.vir",
			cfg:  Config{Label: 0xCF1, AllowIO: AllowList("driver_io")},
			want: []loc{{CodeBadIO, "probe", "entry", 1}},
		},
		{
			// Direct call to a symbol that is neither defined in the
			// module nor an allowed import (the planted-foreign-code
			// name-collision shape; the CodeSpace-backed variant is
			// tested in the compiler package).
			file: "foreign_import.vir",
			cfg:  Config{Label: 0xCF1, AllowImport: AllowList("klog_acc")},
			want: []loc{{CodeBadImport, "trampoline", "entry", 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			m := loadCorpus(t, tc.file)
			diags := CheckModule(m, tc.cfg)
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(tc.want), diags)
			}
			for i, w := range tc.want {
				d := diags[i]
				if d.Code != w.code || d.Fn != w.fn || d.Block != w.block || d.Idx != w.idx {
					t.Errorf("diag %d: got %s at %s/%s[%d], want %s at %s/%s[%d]",
						i, d.Code, d.Fn, d.Block, d.Idx, w.code, w.fn, w.block, w.idx)
				}
			}
		})
	}
}

// TestMmapCorpus exercises the application-side Iago checker over its
// corpus files.
func TestMmapCorpus(t *testing.T) {
	raw := loadCorpus(t, "mmap_raw.vir")
	diags := CheckMmapMaskedModule(raw)
	want := []loc{
		{CodeMmapDeref, "use_mmap", "entry", 1},
		{CodeMmapDeref, "offset_deref", "entry", 2},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		d := diags[i]
		if d.Code != w.code || d.Fn != w.fn || d.Block != w.block || d.Idx != w.idx {
			t.Errorf("diag %d: got %s at %s/%s[%d], want %s at %s/%s[%d]",
				i, d.Code, d.Fn, d.Block, d.Idx, w.code, w.fn, w.block, w.idx)
		}
	}

	masked := loadCorpus(t, "mmap_masked.vir")
	if diags := CheckMmapMaskedModule(masked); len(diags) != 0 {
		t.Fatalf("masked mmap usage flagged: %v", diags)
	}
}

func loadCorpus(t *testing.T, name string) *vir.Module {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	return mustParse(t, string(text))
}
