package benchprog

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rsg"
	"repro/internal/store"
)

// TestTailEdit checks the canonical one-statement edit: the edited
// kernel still compiles and has exactly one more statement than the
// original.
func TestTailEdit(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			base, err := k.Compile()
			if err != nil {
				t.Fatal(err)
			}
			ek, err := k.TailEdit()
			if err != nil {
				t.Fatal(err)
			}
			edited, err := ek.Compile()
			if err != nil {
				t.Fatalf("edited source does not compile: %v", err)
			}
			if got, want := len(edited.Stmts), len(base.Stmts)+1; got != want {
				t.Fatalf("edited program has %d statements, want %d", got, want)
			}
			if edited.Name != base.Name {
				t.Fatalf("tail edit changed the program name: %q vs %q", edited.Name, base.Name)
			}
		})
	}
}

// editCone recomputes the edit-delta seed set the way the engine does:
// statements whose digest changed between base and edited, closed
// forward over the edited CFG.
func editCone(base, edited []ir.StmtDigest, prog *ir.Program) map[int]bool {
	cone := make(map[int]bool)
	var stack []int
	for id := range edited {
		if id >= len(base) || base[id] != edited[id] {
			cone[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range prog.Stmts[id].Succs {
			if !cone[succ] {
				cone[succ] = true
				stack = append(stack, succ)
			}
		}
	}
	return cone
}

// warmKernel runs the cold/warm/edit trajectory for one kernel at the
// given visit budget and asserts the tentpole's acceptance criteria:
// the warm run does zero transfers, and the edit run re-analyzes only
// the changed statement's forward cone. Cold and warm are digest-checked
// against storeless cold references. The edit run's contract is
// cone-aware (DESIGN.md §13): every statement outside the forward cone
// must be bit-identical to a cold run of the edited kernel; statements
// inside the cone are a deterministic continuation from the restored
// converged state, which can be strictly more precise than cold (cold
// accumulates transient predecessor outputs into tail in-states; the
// continuation merges only converged ones). With exactIdentity the cone
// itself must also match cold — true whenever the tail join is
// confluent, which holds for the list kernels.
func warmKernel(t *testing.T, k *Kernel, visits int, exactIdentity bool) {
	t.Helper()
	opts := analysis.Options{MaxVisits: visits}

	refDigs := func(k *Kernel) map[int]rsg.Digest {
		prog, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Run(prog, opts)
		if err != nil {
			t.Fatalf("%s: storeless reference: %v", k.Name, err)
		}
		out := make(map[int]rsg.Digest, len(res.Out))
		for id, s := range res.Out {
			out[id] = s.Digest()
		}
		return out
	}
	check := func(label string, want map[int]rsg.Digest, res *analysis.Result) {
		t.Helper()
		if len(res.Out) != len(want) {
			t.Fatalf("%s: %d out-states, want %d", label, len(res.Out), len(want))
		}
		for id, d := range want {
			if got := res.Out[id].Digest(); got != d {
				t.Fatalf("%s: digest mismatch at stmt %d", label, id)
			}
		}
	}

	want := refDigs(k)
	st, err := store.Open(filepath.Join(t.TempDir(), k.Name+".rsgstore"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sopts := opts
	sopts.Store = st

	// Cold populate.
	prog, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := analysis.Run(prog, sopts)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	check("cold", want, cold)

	// Warm: zero transfers, zero visits.
	prog2, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := analysis.Run(prog2, sopts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	check("warm", want, warm)
	if warm.Stats.DeltaTransfers != 0 || warm.Stats.Visits != 0 {
		t.Fatalf("warm run did work: %+v", warm.Stats)
	}
	if warm.Stats.ReusedStatements == 0 {
		t.Fatalf("warm run restored nothing: %+v", warm.Stats)
	}

	// Edit: one appended tail statement; only its forward cone reruns.
	ek, err := k.TailEdit()
	if err != nil {
		t.Fatal(err)
	}
	wantEdit := refDigs(ek)
	eprog, err := ek.Compile()
	if err != nil {
		t.Fatal(err)
	}
	edit, err := analysis.Run(eprog, sopts)
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	if edit.Stats.ReseededStatements == 0 {
		t.Fatalf("edit run did not take the edit-delta path: %+v", edit.Stats)
	}
	if n := len(eprog.Stmts); edit.Stats.ReseededStatements >= n/2 {
		t.Fatalf("edit cone too large: %d of %d statements reseeded",
			edit.Stats.ReseededStatements, n)
	}
	if exactIdentity {
		check("edit", wantEdit, edit)
	} else {
		cone := editCone(prog.StmtDigests(), eprog.StmtDigests(), eprog)
		drift := 0
		for id, d := range wantEdit {
			got := edit.Out[id]
			if got == nil {
				t.Fatalf("edit: missing out-state for stmt %d", id)
			}
			if got.Digest() == d {
				continue
			}
			if !cone[id] {
				t.Fatalf("edit: digest mismatch OUTSIDE the edit cone at stmt %d", id)
			}
			drift++
		}
		// A second edit run from the same snapshot must replay the same
		// continuation bit for bit.
		eprog2, err := ek.Compile()
		if err != nil {
			t.Fatal(err)
		}
		edit2, err := analysis.Run(eprog2, sopts)
		if err != nil {
			t.Fatalf("edit repeat: %v", err)
		}
		for id, s := range edit.Out {
			if edit2.Out[id] == nil || edit2.Out[id].Digest() != s.Digest() {
				t.Fatalf("edit continuation is not deterministic at stmt %d", id)
			}
		}
		t.Logf("%s: %d of %d cone stmts drifted (more precise than cold)", k.Name, drift, len(cone))
	}
	t.Logf("%s: warm reused %d stmts; edit reseeded %d of %d stmts",
		k.Name, warm.Stats.ReusedStatements, edit.Stats.ReseededStatements, len(eprog.Stmts))
}

// TestWarmStartSmoke is the bench-warm smoke gate: Figure 1's doubly
// linked list plus the Barnes-Hut force kernel, each through the
// cold/warm/edit trajectory at a converging visit budget.
func TestWarmStartSmoke(t *testing.T) {
	warmKernel(t, DoublyList(), 60000, true)
	if testing.Short() {
		t.Skip("skipping barneshut warm-start in -short mode")
	}
	warmKernel(t, BarnesHut(), 60000, false)
}
