package gammaflow

// The benchmark harness: one benchmark family per experiment row of
// DESIGN.md §3 (which indexes every figure, listing and claim of the paper).
// EXPERIMENTS.md records the measured shapes against the paper's claims.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/schema"
	"repro/internal/symtab"
	"repro/internal/value"
)

// ---- E1: Fig. 1 / Example 1 ----

// BenchmarkFig1Dataflow executes the Fig. 1 graph on the dataflow runtime.
func BenchmarkFig1Dataflow(b *testing.B) {
	g := paper.Fig1Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataflow.Run(g, dataflow.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Gamma executes the converted Example-1 program on the Gamma
// runtime (conversion outside the loop; the multiset is cloned per run).
func BenchmarkFig1Gamma(b *testing.B) {
	prog, init, err := core.ToGamma(paper.Fig1Graph())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := init.Clone()
		if _, err := gamma.Run(prog, m, gamma.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Conversion measures Algorithm 1 itself on Fig. 1.
func BenchmarkFig1Conversion(b *testing.B) {
	g := paper.Fig1Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ToGamma(g); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: Fig. 2 / Example 2 loop, iteration sweep ----

func BenchmarkFig2LoopDataflow(b *testing.B) {
	for _, z := range []int64{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("z=%d", z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := paper.Fig2GraphObservable(10, 4, z)
				res, err := dataflow.Run(g, dataflow.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if v, _ := res.Output("xout"); v != value.Int(10+4*z) {
					b.Fatalf("xout = %v", v)
				}
			}
		})
	}
}

func BenchmarkFig2LoopGamma(b *testing.B) {
	for _, z := range []int64{1, 4, 16, 64} {
		prog, init, err := core.ToGamma(paper.Fig2GraphObservable(10, 4, z))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("z=%d", z), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(prog, m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E4: Eq. 2 min element, size and worker sweeps ----

func minProgram(b *testing.B) *gamma.Program {
	b.Helper()
	prog, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func intMultiset(n int) *multiset.Multiset {
	m := multiset.New()
	for i := 0; i < n; i++ {
		m.Add(multiset.New1(value.Int(int64((i*2654435761 + 17) % (4 * n)))))
	}
	return m
}

func BenchmarkMinElement(b *testing.B) {
	prog := minProgram(b)
	for _, n := range []int{10, 100, 400} {
		init := intMultiset(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(prog, m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGammaParallel sweeps workers on the Eq. 2 min element program.
func BenchmarkGammaParallel(b *testing.B) {
	prog := minProgram(b)
	init := intMultiset(400)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(prog, m, gamma.Options{Workers: workers, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: §III-A3 reduction granularity ----

// BenchmarkReductionGranularity compares the full Example-1 program (three
// fine-grained reactions) against the mechanically derived Rd1 (one coarse
// reaction): fewer steps per run, but fewer independent match opportunities.
func BenchmarkReductionGranularity(b *testing.B) {
	full, err := gammalang.ParseProgram("full", paper.Example1GammaListing)
	if err != nil {
		b.Fatal(err)
	}
	reduced, _, err := core.Reduce(full)
	if err != nil {
		b.Fatal(err)
	}
	// n independent instances of the Example-1 dataflow in one multiset:
	// the reduced form must find 4-element combinations, the full form
	// 2-element ones.
	mkInit := func(n int) *multiset.Multiset {
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.Pair(value.Int(int64(i)), "A1"))
			m.Add(multiset.Pair(value.Int(5), "B1"))
			m.Add(multiset.Pair(value.Int(3), "C1"))
			m.Add(multiset.Pair(value.Int(2), "D1"))
		}
		return m
	}
	for _, n := range []int{1, 8, 32} {
		init := mkInit(n)
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(full, m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reduced/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(reduced, m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: Fig. 4 multiset mapping ----

func BenchmarkGammaToDataflowMapping(b *testing.B) {
	r, err := gammalang.ParseReaction(`R = replace [x, 'a'], [y, 'a'] by [x + y, 'b']`)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{6, 60, 600} {
		init := multiset.New()
		for i := 0; i < n; i++ {
			init.Add(multiset.Pair(value.Int(int64(i)), "a"))
		}
		b.Run(fmt.Sprintf("elems=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := core.MapMultiset(context.Background(), r, m, dataflow.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E9: Algorithm 1 over random graphs ----

func BenchmarkAlgorithm1(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := equiv.RandomGraph(42, 8, n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ToGamma(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm2 measures the reverse direction (classification plus
// graph reconstruction) on Algorithm 1's own output.
func BenchmarkAlgorithm2(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g := equiv.RandomGraph(42, 8, n)
		prog, init, err := core.ToGamma(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ProgramToGraph("back", prog, init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Wake policy: incremental matching engine vs the seed full rescan ----

// tournamentProgram is a staged pairwise min reduction over labeled elements
// (min-element-style, in the literal-label shape Algorithm 1 emits): stage i
// consumes two [x,'Li'] elements and forwards the smaller as [x,'L<i+1>'].
// Every reaction subscribes to exactly one label, so the delta scheduler
// re-probes only the stage a firing actually fed.
func tournamentProgram(b *testing.B, stages int) *gamma.Program {
	b.Helper()
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n",
			i, i, i, i+1, i+1)
	}
	prog, err := gammalang.ParseProgram("tournament", src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func tournamentMultiset(n int) *multiset.Multiset {
	m := multiset.New()
	for i := 0; i < n; i++ {
		m.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
	}
	return m
}

// BenchmarkGammaIncremental compares the delta-driven scheduler against the
// seed full-rescan baseline (Options.FullScan) on the ISSUE workloads:
// Eq. 2 min element, the staged labeled variant, and the §II-B primes sieve
// (step-capped: its probes are quadratic in any engine). probes/op is the
// matching-engine work metric; see EXPERIMENTS.md "Wake policy, in counts".
func BenchmarkGammaIncremental(b *testing.B) {
	engines := []struct {
		name     string
		fullScan bool
	}{{"incremental", false}, {"fullscan", true}}

	run := func(prog *gamma.Program, init *multiset.Multiset, maxSteps int64) func(*testing.B) {
		return func(b *testing.B) {
			for _, eng := range engines {
				b.Run(eng.name, func(b *testing.B) {
					var probes int64
					for i := 0; i < b.N; i++ {
						m := init.Clone()
						st, err := gamma.Run(prog, m, gamma.Options{
							FullScan: eng.fullScan, MaxSteps: maxSteps,
						})
						if err != nil && !(maxSteps > 0 && err == gamma.ErrMaxSteps) {
							b.Fatal(err)
						}
						probes += st.Probes
					}
					b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
				})
			}
		}
	}

	min := minProgram(b)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("min/n=%d", n), run(min, intMultiset(n), 0))
	}
	for _, n := range []int{1000, 10000} {
		stages := 10
		if n == 10000 {
			stages = 14
		}
		b.Run(fmt.Sprintf("tournament/n=%d", n),
			run(tournamentProgram(b, stages), tournamentMultiset(n), 0))
	}
	sieve, err := gammalang.ParseProgram("sieve",
		`R = replace (x, y) by y where x % y == 0 and x != y`)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		init := multiset.New()
		for i := int64(2); i <= int64(n); i++ {
			init.Add(multiset.New1(value.Int(i)))
		}
		// The sieve probes quadratically in any engine; a step cap keeps the
		// comparison about scheduling, not about the sieve's own cost.
		b.Run(fmt.Sprintf("primes/n=%d", n), run(sieve, init, 50))
	}
}

// ---- Ablation: indexed matching vs full scan (DESIGN.md §5.2) ----

// BenchmarkMatchIndexedVsScan expresses the same join two ways: with literal
// labels (hits the (label, tag) index) and with a variable label constrained
// by a condition (forces the full-scan path).
func BenchmarkMatchIndexedVsScan(b *testing.B) {
	indexed, err := gammalang.ParseReaction(
		`R = replace [a, 'L', v], [c, 'R', v] by [a + c, 'O', v]`)
	if err != nil {
		b.Fatal(err)
	}
	scan, err := gammalang.ParseReaction(
		`R = replace [a, x, v], [c, y, v] by [a + c, 'O', v] if (x == 'L') and (y == 'R')`)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 64} {
		init := multiset.New()
		for i := 0; i < n; i++ {
			init.Add(multiset.IntElem(int64(i), "L", int64(i)))
			init.Add(multiset.IntElem(int64(i*10), "R", int64(i)))
		}
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(gamma.MustProgram("p", indexed), m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := init.Clone()
				if _, err := gamma.Run(gamma.MustProgram("p", scan), m, gamma.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation: tagged-union Value vs boxed interface (DESIGN.md §5.1) ----

type boxedAdd struct{ v any }

func addBoxed(a, b any) any {
	ai, _ := a.(int64)
	bi, _ := b.(int64)
	return ai + bi
}

func BenchmarkValueTaggedVsBoxed(b *testing.B) {
	b.Run("tagged", func(b *testing.B) {
		acc := value.Int(0)
		for i := 0; i < b.N; i++ {
			acc, _ = value.Add(acc, value.Int(int64(i)))
		}
		if acc.Kind() == value.KindInvalid {
			b.Fatal("impossible")
		}
	})
	b.Run("boxed", func(b *testing.B) {
		box := boxedAdd{v: int64(0)}
		for i := 0; i < b.N; i++ {
			box.v = addBoxed(box.v, int64(i))
		}
		if box.v == nil {
			b.Fatal("impossible")
		}
	})
}

// ---- E15: parallelism profiling, and its overhead (ablation) ----

// BenchmarkProfileOverhead measures the cost of profiling the Fig. 2 loop in
// each runtime: recording the schedule and folding it into a work/span
// report.
func BenchmarkProfileOverhead(b *testing.B) {
	g := paper.Fig2GraphObservable(10, 4, 16)
	b.Run("dataflow/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dataflow.Run(g, dataflow.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dataflow/on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := replay.NewRecorder(replay.KindDataflow, "fig2")
			if _, err := dataflow.Run(g, dataflow.Options{Schedule: rec}); err != nil {
				b.Fatal(err)
			}
			if rec.Schedule().Profile().Work == 0 {
				b.Fatal("empty trace")
			}
		}
	})
	prog, init, err := core.ToGamma(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gamma/off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := init.Clone()
			if _, err := gamma.Run(prog, m, gamma.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gamma/on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := replay.NewRecorder(replay.KindGamma, "fig2")
			m := init.Clone()
			if _, err := gamma.Run(prog, m, gamma.Options{Schedule: rec}); err != nil {
				b.Fatal(err)
			}
			if rec.Schedule().Profile().Work == 0 {
				b.Fatal("empty trace")
			}
		}
	})
}

// BenchmarkSchemaInferAndCheck measures the static-typing pass on the
// converted Fig. 2 program.
func BenchmarkSchemaInferAndCheck(b *testing.B) {
	prog, init, err := core.ToGamma(paper.Fig2GraphObservable(10, 4, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := schema.Infer(prog, init)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Check(prog, init); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Supporting pipeline stages ----

// BenchmarkCompiler measures the von Neumann → dataflow translation.
func BenchmarkCompiler(b *testing.B) {
	src := `int y = 4; int z = 30; int x = 10; int i;
	        for (i = z; i > 0; i--) x = x + y; output x;`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile("loop", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeProgramPipeline measures the whole toolchain — compile,
// Algorithm 1, classify-and-reconstruct — on generated programs of growing
// size (statement counts 32..512).
func BenchmarkLargeProgramPipeline(b *testing.B) {
	for _, stmts := range []int{32, 128, 512} {
		src, _ := equiv.RandomProgram(11, 6, stmts)
		b.Run(fmt.Sprintf("stmts=%d/compile", stmts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile("big", src); err != nil {
					b.Fatal(err)
				}
			}
		})
		g, err := compiler.Compile("big", src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stmts=%d/toGamma", stmts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ToGamma(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		prog, init, err := core.ToGamma(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stmts=%d/reconstruct", stmts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ProgramToGraph("back", prog, init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGammaParse measures the Fig. 3 grammar parser on the paper's
// largest listing.
func BenchmarkGammaParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gammalang.ParseProgram("ex2", paper.Example2GammaListing); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiset measures the substrate's core operations.
func BenchmarkMultiset(b *testing.B) {
	b.Run("add-remove", func(b *testing.B) {
		m := multiset.New()
		one := []multiset.Tuple{nil}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			one[0] = multiset.IntElem(int64(i%64), "L", int64(i%8))
			m.Add(one[0])
			m.TryRemoveAll(one)
		}
	})
	b.Run("symtag", func(b *testing.B) {
		m := multiset.New()
		for i := 0; i < 1024; i++ {
			m.Add(multiset.IntElem(int64(i), fmt.Sprintf("L%d", i%16), int64(i%64)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			m.IterSymTag(symtab.Intern(fmt.Sprintf("L%d", i%16)), int64(i%64), func(multiset.Tuple, int, string) bool { n++; return true })
			if n == 0 {
				b.Fatal("lookup miss")
			}
		}
	})
}
