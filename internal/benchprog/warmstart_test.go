package benchprog

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
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

// warmKernel runs the cold/warm/edit trajectory for one kernel at the
// given visit budget and asserts the warm-start contract: the warm run
// does zero transfers, the edit run re-analyzes only the changed
// statement's forward cone, and every run is digest-identical, at every
// statement, to a storeless cold run of the same source (DESIGN.md
// §13).
func warmKernel(t *testing.T, k *Kernel, visits int) {
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
	check("edit", wantEdit, edit)
	t.Logf("%s: warm reused %d stmts; edit reseeded %d of %d stmts",
		k.Name, warm.Stats.ReusedStatements, edit.Stats.ReseededStatements, len(eprog.Stmts))
}

// TestWarmStartSmoke is the bench-warm smoke gate: Figure 1's doubly
// linked list plus the Barnes-Hut force kernel, each through the
// cold/warm/edit trajectory at a converging visit budget.
func TestWarmStartSmoke(t *testing.T) {
	warmKernel(t, DoublyList(), 60000)
	if testing.Short() {
		t.Skip("skipping barneshut warm-start in -short mode")
	}
	warmKernel(t, BarnesHut(), 60000)
}
