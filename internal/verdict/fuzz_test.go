package verdict

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchprog"
	"repro/internal/concrete"
)

// fuzzSeed mirrors the concrete package's sweep seeding: FUZZ_SEED
// rotates the master seed, the committed default keeps the run
// reproducible.
func fuzzSeed(t *testing.T) int64 {
	if env := os.Getenv("FUZZ_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("invalid FUZZ_SEED %q: %v", env, err)
		}
		return seed
	}
	return 20260808
}

// TestFuzzDifferentialVerdicts is the differential hook between the
// checkers and the interpreter: on randomly generated free()-heavy
// programs, a checker must NEVER settle SAFE for a class some concrete
// execution violates. Unsafe/unknown verdicts are unconstrained (random
// programs fault all the time); the property under test is one-sided
// soundness of the SAFE claims — exactly the guarantee the corpus
// cross-validation pins on the curated tasks, extended here to
// adversarial inputs.
func TestFuzzDifferentialVerdicts(t *testing.T) {
	programs := 25
	seeds := int64(60)
	if testing.Short() {
		programs, seeds = 5, 20
	}
	seedRng := rand.New(rand.NewSource(fuzzSeed(t)))
	for i := 0; i < programs; i++ {
		gen, genName := concrete.GenFreeProgram, "free"
		if i%4 == 3 { // every fourth program is free-less
			gen, genName = concrete.GenProgram, "plain"
		}
		genSeed := seedRng.Int63()
		src := gen(rand.New(rand.NewSource(genSeed)))
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("program %d (gen %s, genseed %d): %v\n%s", i, genName, genSeed, err, src)
		}
		rep := Check(prog, Options{Analysis: analysis.Options{MaxVisits: 50000, Workers: 4}})
		if rep.Err != nil {
			// The bounded analysis did not converge on this program; there
			// are no SAFE claims to falsify.
			continue
		}
		observed := make(map[Class]bool)
		for seed := int64(1); seed <= seeds; seed++ {
			tr, err := concrete.RunSeed(prog, seed)
			if err != nil {
				t.Fatalf("program %d (gen %s, genseed %d) seed %d: %v\n%s", i, genName, genSeed, seed, err, src)
			}
			if c, ok := classOfFault(tr.Fault); ok {
				observed[c] = true
			}
			if len(tr.Leaks) > 0 {
				observed[Leak] = true
			}
		}
		for _, c := range Classes() {
			v := rep.VerdictFor(c)
			if v.Status == Safe && observed[c] {
				t.Errorf("program %d (gen %s, genseed %d): checker claims %s %s but the interpreter violates it\n%s",
					i, genName, genSeed, c, v, src)
			}
		}
	}
}

// FuzzCompile feeds arbitrary source to Compile, the parse-and-lower
// path every shapecheck task and every /check request takes first: it
// must return, with a program or an error, and never panic. The seeds
// are the verdict corpus, the concrete regression programs and the
// kernels; `make fuzz` runs a bounded fuzzing pass.
func FuzzCompile(f *testing.F) {
	for _, pattern := range []string{filepath.Join(corpusDir, "*.c"), "../concrete/testdata/*.c"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no seed programs match %s", pattern)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	for _, k := range benchprog.All() {
		f.Add(k.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Compile(src) // rejecting the input is fine; panicking is not
	})
}
