// Command embrace-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	embrace-bench                 # run every experiment
//	embrace-bench -exp fig7       # run one experiment
//	embrace-bench -list           # list experiment ids
//	embrace-bench -model GNMT-8 -gpu RTX2080 -gpus 16   # one simulation cell
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"embrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("embrace-bench: ")

	var (
		exp      = flag.String("exp", "", "experiment id to run (empty = all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		model    = flag.String("model", "", "simulate a single cell for this model instead of running experiments")
		gpu      = flag.String("gpu", "RTX3090", "GPU kind for -model (RTX3090 or RTX2080)")
		gpus     = flag.Int("gpus", 16, "total GPUs for -model")
		traceOut = flag.String("trace", "", "with -model: write a Chrome trace of the EmbRace timeline to this file")
		asJSON   = flag.Bool("json", false, "with -exp: emit structured JSON instead of text")
		outDir   = flag.String("out", "", "write every experiment's text and JSON artifacts into this directory")
	)
	flag.Parse()

	switch {
	case *outDir != "":
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, id := range embrace.ExperimentIDs() {
			txt, err := os.Create(filepath.Join(*outDir, id+".txt"))
			if err != nil {
				log.Fatal(err)
			}
			if err := embrace.RunExperiment(id, txt); err != nil {
				log.Fatal(err)
			}
			txt.Close()
			js, err := os.Create(filepath.Join(*outDir, id+".json"))
			if err != nil {
				log.Fatal(err)
			}
			if err := embrace.RunExperimentJSON(id, js); err != nil {
				log.Fatal(err)
			}
			js.Close()
			fmt.Printf("wrote %s.{txt,json}\n", filepath.Join(*outDir, id))
		}
	case *list:
		for _, id := range embrace.ExperimentIDs() {
			title, _ := embrace.ExperimentTitle(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
	case *model != "":
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			err = embrace.SimulateTrace(embrace.SimJob{
				Model: *model, GPU: embrace.GPU(*gpu), GPUs: *gpus,
				Strategy: embrace.EmbRace, Sched: embrace.Sched2D,
			}, f)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s (open in chrome://tracing or Perfetto)\n", *traceOut)
		}
		fmt.Printf("%s on %d x %s (tokens/sec, stall ms):\n", *model, *gpus, *gpu)
		for _, s := range embrace.Strategies() {
			sched := embrace.SchedNone
			if s == embrace.EmbRace {
				sched = embrace.Sched2D
			}
			res, err := embrace.Simulate(embrace.SimJob{
				Model:    *model,
				GPU:      embrace.GPU(*gpu),
				GPUs:     *gpus,
				Strategy: s,
				Sched:    sched,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-18s %10.0f tok/s  step %6.1fms  stall %6.1fms\n",
				s, res.TokensPerSec, res.StepSeconds*1e3, res.StallSeconds*1e3)
		}
	case *exp != "":
		run := embrace.RunExperiment
		if *asJSON {
			run = embrace.RunExperimentJSON
		}
		if err := run(*exp, os.Stdout); err != nil {
			log.Fatal(err)
		}
	default:
		if err := embrace.RunAllExperiments(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
