// Command shebench regenerates the SHE paper's tables and figures.
//
// Usage:
//
//	shebench [flags] <experiment> [<experiment>...]
//
// Experiments: table2, table3, constraints, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, ablation, model, all. With -trace FILE the
// 'throughput' experiment replays a packet trace.
//
// Flags:
//
//	-quick      run at test scale (seconds instead of minutes)
//	-n          override the window size N
//	-seed       override the workload seed
//
// Output is text tables — one row per x-axis point, one column per
// series — matching the rows/series of the corresponding paper figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"she/internal/experiments"
	"she/internal/metrics"
	"she/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "run at test scale")
	n := flag.Uint64("n", 0, "override window size N")
	seed := flag.Uint64("seed", 0, "override workload seed")
	traceFile := flag.String("trace", "", "trace file for the 'throughput' experiment (SHET binary or text)")
	flag.BoolVar(&jsonOut, "json", false, "emit JSON instead of text tables")
	flag.Usage = usage
	flag.Parse()

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *n != 0 {
		sc.N = *n
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *traceFile != "" {
		keys, err := loadTrace(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shebench: %v\n", err)
			os.Exit(1)
		}
		registry["throughput"] = func(sc experiments.Scale) {
			renderFigs([]metrics.Figure{experiments.ThroughputOnKeys(sc, keys)})
		}
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table2", "table3", "constraints", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "model"}
	}
	for _, name := range args {
		run, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		run(sc)
		if !jsonOut {
			fmt.Printf("\n[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
}

var registry = map[string]func(experiments.Scale){
	"table2": func(experiments.Scale) { renderTable(experiments.Table2()) },
	"table3": func(experiments.Scale) { renderTable(experiments.Table3()) },
	"constraints": func(experiments.Scale) {
		renderTable(experiments.TableConstraints())
	},
	"fig5":  func(sc experiments.Scale) { renderFigs(experiments.Fig5(sc)) },
	"fig6":  func(sc experiments.Scale) { renderFigs(experiments.Fig6(sc)) },
	"fig7":  func(sc experiments.Scale) { renderFigs(experiments.Fig7(sc)) },
	"fig8":  func(sc experiments.Scale) { renderFigs(experiments.Fig8(sc)) },
	"fig9":  func(sc experiments.Scale) { renderFigs(experiments.Fig9(sc)) },
	"fig10": func(sc experiments.Scale) { renderFigs(experiments.Fig10(sc)) },
	"fig11": func(sc experiments.Scale) { renderFigs([]metrics.Figure{experiments.Fig11(sc)}) },
	"ablation": func(sc experiments.Scale) {
		for _, t := range experiments.Ablations(sc) {
			renderTable(t)
		}
	},
	"model": func(sc experiments.Scale) {
		for _, t := range experiments.ModelValidation(sc) {
			renderTable(t)
		}
	},
}

// loadTrace reads a SHET binary trace, a classic pcap capture (keyed by
// source IP, the paper's setting), or the one-key-per-line text format.
func loadTrace(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, err := trace.Read(f)
	if err == nil {
		return keys, nil
	}
	if _, serr := f.Seek(0, 0); serr != nil {
		return nil, serr
	}
	keys, perr := trace.ReadPcap(f, trace.KeySrcIP, 0)
	if perr == nil {
		return keys, nil
	}
	if _, serr := f.Seek(0, 0); serr != nil {
		return nil, serr
	}
	keys, terr := trace.ReadText(f)
	if terr != nil {
		return nil, fmt.Errorf("not a binary trace (%v), pcap (%v), nor text (%v)", err, perr, terr)
	}
	return keys, nil
}

// jsonOut switches every renderer to machine-readable output.
var jsonOut bool

func renderFigs(figs []metrics.Figure) {
	for i := range figs {
		if jsonOut {
			if err := figs[i].RenderJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "shebench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		figs[i].Render(os.Stdout)
	}
}

func renderTable(t metrics.Table) {
	if jsonOut {
		if err := t.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "shebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	t.Render(os.Stdout)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: shebench [flags] <experiment> [<experiment>...]\n\nexperiments:\n")
	names := make([]string, 0, len(registry)+1)
	for n := range registry {
		names = append(names, n)
	}
	names = append(names, "all")
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}
