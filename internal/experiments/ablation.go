package experiments

import (
	"fmt"

	"she/internal/analysis"
	"she/internal/core"
	"she/internal/exact"
	"she/internal/metrics"
	"she/internal/stream"
)

// Ablations runs the design-choice studies DESIGN.md §5 calls out:
// cleaning strategy, group size, age-sensitive selection and the
// two-sided legal-age floor β.
func Ablations(sc Scale) []metrics.Table {
	return []metrics.Table{
		AblationCleaning(sc),
		AblationGroupSize(sc),
		AblationSelection(sc),
		AblationBeta(sc),
		AblationConservativeUpdate(sc),
	}
}

// AblationConservativeUpdate compares SHE-CM with the SHE-CU extension
// (conservative update) across counter pressure: CU's ARE should sit
// clearly below CM's when counters are scarce, at the price of a rare,
// bounded undercount (the approximate one-sidedness core.CU documents).
func AblationConservativeUpdate(sc Scale) metrics.Table {
	t := metrics.Table{
		Title:   "Extension: conservative update (SHE-CU) vs SHE-CM",
		Columns: []string{"Counters/item", "SHE-CM ARE", "SHE-CU ARE", "CU undercount rate"},
	}
	n := sc.N
	warm := warmFor(core.DefaultAlphaCM)
	for _, cpi := range []float64{0.5, 1, 2} {
		counters := int(cpi * float64(n))
		cm := mustCM(counters, n, core.DefaultAlphaCM, core.DefaultHashes, sc.Seed)
		cmARE := areRun(sc, n, stream.CAIDA(sc.Seed), warm, cm.Insert,
			sheEstimate(cm.EstimateFrequency), nil)

		cu, err := core.NewCU(counters, groupW(counters), core.DefaultHashes,
			core.WindowConfig{N: n, Alpha: core.DefaultAlphaCM, Seed: sc.Seed})
		if err != nil {
			panic(err)
		}
		var under, total int
		cuARE := areRunWithTruth(sc, n, stream.CAIDA(sc.Seed), warm, cu.Insert,
			func(key uint64, truth uint64) uint64 {
				est := cu.EstimateFrequency(key)
				total++
				if est < truth {
					under++
				}
				return est
			})
		t.AddRow(fmt.Sprintf("%.1f", cpi), fmt.Sprintf("%.4f", cmARE),
			fmt.Sprintf("%.4f", cuARE), fmt.Sprintf("%.4f", float64(under)/float64(total)))
	}
	return t
}

// AblationBeta sweeps the two-sided legal-age floor β for SHE-BM. The
// analysis default β = 1−α balances bias (young cells under-count the
// window) against variance (a high floor leaves few legal cells,
// Eq. in §5.3); β = 0 admits every cell and biases the estimate low,
// β → 1 starves the sample.
func AblationBeta(sc Scale) metrics.Table {
	t := metrics.Table{
		Title:   "Ablation: legal-age floor beta, SHE-BM (alpha=0.2)",
		Columns: []string{"beta", "Relative Error", "Legal fraction"},
	}
	n := sc.N
	bits := int(float64(n) / 8)
	alpha := core.DefaultAlphaTwoSided
	for _, beta := range []float64{0.01, 0.4, 0.8, 0.95} {
		bm, err := core.NewBM(bits, 64, core.WindowConfig{N: n, Alpha: alpha, Beta: beta, Seed: sc.Seed})
		if err != nil {
			panic(err)
		}
		re := cardRun(sc, n, stream.CAIDA(sc.Seed), warmFor(alpha), bm.Insert,
			func(*exact.Window) float64 { return bm.EstimateCardinality() }, nil)
		frac := (1 + alpha - beta) / (1 + alpha)
		t.AddRow(fmt.Sprintf("%.2f", beta), fmt.Sprintf("%.4f", re), fmt.Sprintf("%.2f", frac))
	}
	return t
}

// AblationCleaning compares the hardware (lazy group-mark) and software
// (sweeping process) cleaners on the Bloom filter: insertion throughput
// and FPR. The lazy version trades a little accuracy (1-bit mark
// aliasing) for dropping the background process entirely.
func AblationCleaning(sc Scale) metrics.Table {
	t := metrics.Table{
		Title:   "Ablation: lazy (hardware) vs sweeping (software) cleaning, SHE-BF",
		Columns: []string{"Cleaner", "Throughput (Mips)", "FPR"},
	}
	n := sc.N
	bits := int(16 * float64(n))
	k := core.DefaultHashes
	warm := warmFor(core.DefaultAlphaBF)

	lazy := mustBF(bits, n, core.DefaultAlphaBF, k, sc.Seed)
	lazyMips := throughputMips(genKeys(stream.CAIDA(sc.Seed), sc.ThroughputItems), lazy.Insert)
	lazy2 := mustBF(bits, n, core.DefaultAlphaBF, k, sc.Seed)
	lazyFPR := fprRun(sc, n, stream.CAIDA(sc.Seed), warm, lazy2.Insert, sheQuery(lazy2.Query), nil)
	t.AddRow("lazy group marks", fmt.Sprintf("%.1f", lazyMips), fmt.Sprintf("%.2e", lazyFPR))

	sweep, err := core.NewSweepBF(bits, k, core.WindowConfig{N: n, Alpha: core.DefaultAlphaBF, Seed: sc.Seed})
	if err != nil {
		panic(err)
	}
	sweepMips := throughputMips(genKeys(stream.CAIDA(sc.Seed), sc.ThroughputItems), sweep.Insert)
	sweep2, _ := core.NewSweepBF(bits, k, core.WindowConfig{N: n, Alpha: core.DefaultAlphaBF, Seed: sc.Seed})
	sweepFPR := fprRun(sc, n, stream.CAIDA(sc.Seed), warm, sweep2.Insert, sheQuery(sweep2.Query), nil)
	t.AddRow("sweeping process", fmt.Sprintf("%.1f", sweepMips), fmt.Sprintf("%.2e", sweepFPR))

	return t
}

// AblationGroupSize sweeps the group size w for SHE-BF: larger groups
// mean fewer marks and fewer distinct memory lines (good for hardware)
// but coarser cleaning. Eq. 1's predicted count of groups that miss
// their cleaning is printed alongside the measured FPR.
func AblationGroupSize(sc Scale) metrics.Table {
	t := metrics.Table{
		Title:   "Ablation: group size w, SHE-BF",
		Columns: []string{"w", "Groups", "FPR", "Eq.1 predicted failed groups", "Throughput (Mips)"},
	}
	n := sc.N
	bits := int(16 * float64(n))
	k := core.DefaultHashes
	warm := warmFor(core.DefaultAlphaBF)
	distinct := windowDistinct(n, stream.CAIDA(sc.Seed))
	for _, w := range []int{1, 8, 64, 512} {
		bf, err := core.NewBF(bits, w, k, core.WindowConfig{N: n, Alpha: core.DefaultAlphaBF, Seed: sc.Seed})
		if err != nil {
			panic(err)
		}
		fpr := fprRun(sc, n, stream.CAIDA(sc.Seed), warm, bf.Insert, sheQuery(bf.Query), nil)
		bf2, _ := core.NewBF(bits, w, k, core.WindowConfig{N: n, Alpha: core.DefaultAlphaBF, Seed: sc.Seed})
		mips := throughputMips(genKeys(stream.CAIDA(sc.Seed), sc.ThroughputItems), bf2.Insert)
		groups := (bits + w - 1) / w
		pred := analysis.OnDemandFailures(groups, core.DefaultAlphaBF, distinct, k)
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", groups),
			fmt.Sprintf("%.2e", fpr), fmt.Sprintf("%.2f", pred), fmt.Sprintf("%.1f", mips))
	}
	return t
}

// AblationSelection quantifies what age-sensitive selection buys: with
// it, SHE-BF has no false negatives; without it (young cells used like
// any other), recently cleaned groups hide in-window items.
func AblationSelection(sc Scale) metrics.Table {
	t := metrics.Table{
		Title:   "Ablation: age-sensitive selection, SHE-BF",
		Columns: []string{"Query rule", "False negative rate", "FPR"},
	}
	n := sc.N
	bits := int(16 * float64(n))
	k := core.DefaultHashes

	measure := func(query func(*core.BF, uint64) bool) (fnr, fpr float64) {
		bf := mustBF(bits, n, core.DefaultAlphaBF, k, sc.Seed)
		win := exact.NewWindow(int(n))
		gen := stream.CAIDA(sc.Seed)
		for i := 0; i < warmFor(core.DefaultAlphaBF)*int(n); i++ {
			kk := gen.Next()
			bf.Insert(kk)
			win.Push(kk)
		}
		var fn, fnTot, fp, fpTot int
		probeState := sc.Seed ^ 0xab1e
		for e := 0; e < sc.Epochs; e++ {
			for i := 0; i < epochSpacing(n); i++ {
				kk := gen.Next()
				bf.Insert(kk)
				win.Push(kk)
			}
			// Positive probes: keys certainly in the window.
			count := 0
			win.Distinct(func(kk uint64, _ uint64) {
				if count >= sc.Probes/4 {
					return
				}
				count++
				fnTot++
				if !query(bf, kk) {
					fn++
				}
			})
			// Negative probes: disjoint key space.
			for p := 0; p < sc.Probes/4; p++ {
				probe := (probeState+uint64(p)*2654435761)<<1 | 1<<63
				fpTot++
				if query(bf, probe) {
					fp++
				}
			}
		}
		return float64(fn) / float64(fnTot), float64(fp) / float64(fpTot)
	}

	fnr, fpr := measure(func(bf *core.BF, kk uint64) bool { return bf.Query(kk) })
	t.AddRow("ignore young cells (SHE)", fmt.Sprintf("%.2e", fnr), fmt.Sprintf("%.2e", fpr))
	fnr, fpr = measure(func(bf *core.BF, kk uint64) bool { return bf.QueryAllCells(kk) })
	t.AddRow("use all cells (ablated)", fmt.Sprintf("%.2e", fnr), fmt.Sprintf("%.2e", fpr))
	return t
}
