// Command benchmark is the repo's one benchmark: five named workloads, six
// end-to-end metrics measured with tracing off, and a separate traced pass
// per workload that times calls into each module's public functions for the
// per-layer numbers. README.md in this directory has the reasoning.
//
//	go run ./benchmark                                   # everything
//	go run ./benchmark -workload serve_cold -trace 0     # one untraced pass
//	go run ./benchmark -compare a.json b.json            # regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// value is one reported number with its unit and the number of samples
// behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// regime is the condition a workload exists to meet, as observed.
type regime struct {
	What  string  `json:"what"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	OK    bool    `json:"ok"`
}

// passResult is one pass — traced or not — of one workload.
type passResult struct {
	Workload   string           `json:"workload"`
	Traced     bool             `json:"traced"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Notes      []string         `json:"notes,omitempty"`
	LossDigest string           `json:"loss_digest,omitempty"`
	Regime     *regime          `json:"regime,omitempty"`
	Metrics    map[string]value `json:"metrics"`

	tracer *tracer
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric; the unit comes from the metric tables, so a name
// that is not in them is a bug.
func (r *passResult) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: unknown metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

func (r *passResult) correct() bool { return r.Failed == 0 }

// env describes the machine and the settings of a run.
type env struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// report is the JSON -out writes and -compare reads.
type report struct {
	Env    env           `json:"env"`
	Passes []*passResult `json:"passes"`
}

// contractLine is the object printed as the last line of standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workload names (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", refSeconds, "length of one timed run")
	scale := fs.Float64("scale", 1, "multiplies -seconds and every fixed count with it")
	traceMode := fs.String("trace", "both", "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), both")
	out := fs.String("out", "", "write the full result as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans as a Chrome trace to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric is worse")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		wl := workloadByName(name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, wl)
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace wants 0, 1 or both, got %q\n", *traceMode)
		return 2
	}
	if !(*seconds > 0) || !(*scale > 0) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive")
		return 2
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), ranks))
	rep := &report{Env: env{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Scale: *scale,
	}}
	fmt.Printf("env: %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g scale=%g\n",
		rep.Env.GoVersion, rep.Env.NProc, rep.Env.GOMAXPROCS, *seed, *seconds, *scale)

	for _, wl := range selected {
		fmt.Printf("\n# %s: %s\n", wl.name, wl.why)
		if *traceMode != "1" {
			res, err := runUntraced(wl, *seed, *seconds**scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			rep.Passes = append(rep.Passes, res)
			printPass(res, endToEnd)
		}
		if *traceMode != "0" {
			res, err := runTraced(wl, *seed, *seconds**scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", wl.name, err)
				return 1
			}
			rep.Passes = append(rep.Passes, res)
			printPass(res, perLayer)
		}
	}

	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rep.Passes); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}

	line := contractLine{Correct: true, Metrics: map[string]value{}}
	for _, p := range rep.Passes {
		line.Correct = line.Correct && p.correct()
		line.Attempted += p.Attempted
		line.Failed += p.Failed
		for name, v := range p.Metrics {
			if len(selected) > 1 {
				name = p.Workload + "/" + name
			}
			line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func runUntraced(wl *workload, seed int64, seconds float64) (*passResult, error) {
	if wl.train != nil {
		return runTrain(wl, seed, seconds)
	}
	return runServe(wl, seed, seconds)
}

// printPass prints every metric of the pass by name, with unit and sample
// count, in the order of the metric table; a per-layer metric also says which
// end-to-end metric it is expected to move.
func printPass(r *passResult, defs []metricDef) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s (%s): attempted %d, failed %d, fail_share %.6f\n",
		r.Workload, kind, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			line := fmt.Sprintf("  %-36s %16.6f %-6s n=%d", d.name, v.Value, v.Unit, v.N)
			if d.moves != "" {
				line += "  -> " + d.moves
			}
			fmt.Println(line)
		}
	}
	if r.LossDigest != "" {
		fmt.Printf("  loss_digest %s\n", r.LossDigest)
	}
	if g := r.Regime; g != nil {
		verdict := "ok"
		if !g.OK {
			verdict = "VIOLATED"
		}
		fmt.Printf("  regime: %s = %.4f, wanted in [%.2f, %.2f]: %s\n", g.What, g.Value, g.Min, g.Max, verdict)
	}
	for _, n := range r.Notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, passes []*passResult) error {
	var tracers []*tracer
	for _, p := range passes {
		if p.tracer != nil {
			tracers = append(tracers, p.tracer)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, tracers); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
