// Command embrace-train runs real distributed training — N in-process ranks
// with genuine collective communication — under any of the paper's five
// strategies, printing the loss curve.
//
// Usage:
//
//	embrace-train -strategy embrace -sched 2d -workers 4 -steps 50 -adam
//	embrace-train -sched 2d -steps 8 -seed 7 -trace trace.json   # per-phase table + Chrome trace
//
// With -peers every rank runs in its own OS process and the ranks mesh over
// TCP; start one process per rank with the same peer list (any order):
//
//	P=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	embrace-train -rank 1 -peers $P & embrace-train -rank 2 -peers $P &
//	embrace-train -rank 3 -peers $P & embrace-train -rank 0 -peers $P
//
// Rank 0 prints the report; the others print completion only. Every
// strategy runs multi-process: the parameter-server baselines host one
// server shard per rank.
//
// -sched defaults to none, as embrace.TrainConfig does: measured on real
// execution, 2D scheduling does not pay for its split and second exchange
// (EXPERIMENTS.md); -sched 2d runs it for the Figure-9 comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"embrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("embrace-train: ")

	var (
		strategy = flag.String("strategy", "embrace", "byteps | horovod-allreduce | horovod-allgather | parallax | embrace")
		sched    = flag.String("sched", "none", "embrace scheduling: none | 2d")
		workers  = flag.Int("workers", 4, "number of ranks")
		steps    = flag.Int("steps", 50, "training steps")
		vocab    = flag.Int("vocab", 2000, "vocabulary size")
		embDim   = flag.Int("dim", 32, "embedding dimension (divisible by workers)")
		hidden   = flag.Int("hidden", 32, "hidden layer width")
		batch    = flag.Int("batch", 16, "sentences per worker per step")
		adam     = flag.Bool("adam", true, "use Adam (false = SGD)")
		lr       = flag.Float64("lr", 0.01, "learning rate")
		seed     = flag.Int64("seed", 1, "random seed")
		overTCP  = flag.Bool("tcp", false, "run collectives over loopback TCP sockets")
		ckpt     = flag.String("checkpoint", "", "save final parameters to this file")
		resume   = flag.String("resume", "", "warm-start from a checkpoint written with the same configuration")
		every    = flag.Int("every", 5, "print loss every N steps")

		chaosSeed   = flag.Int64("chaos-seed", 0, "train over a seeded fault-injecting transport (0 = off)")
		elastic     = flag.Bool("elastic", false, "run under the elastic supervisor: crash -> shrink -> resume (DESIGN.md §13)")
		ckptEvery   = flag.Int("ckpt-every", 0, "elastic snapshot cadence in steps (0 = default 5)")
		rejoin      = flag.Bool("rejoin", false, "elastic: readmit recovered ranks at full world size")
		rejoinAfter = flag.Int("rejoin-after", 0, "steps the shrunk world trains before readmitting (0 = ckpt cadence)")
		crashRank   = flag.Int("crash-rank", 0, "elastic: rank to crash deterministically")
		crashStep   = flag.Int("crash-step", 0, "elastic: step at which crash-rank dies (0 = no injected crash)")
		elasticOut  = flag.String("elastic-report", "", "write the elastic epoch/recovery-latency report as JSON to this file")

		tracePath = flag.String("trace", "", "record per-rank spans, print time by phase and write a Chrome trace to this file")
		rank      = flag.Int("rank", 0, "with -peers: this process's rank")
		peers     = flag.String("peers", "", "comma-separated host:port list, one per rank in rank order: run one rank per process over TCP")
	)
	flag.Parse()

	cfg := embrace.TrainConfig{
		Strategy:               embrace.Strategy(*strategy),
		Sched:                  embrace.SchedLevel(*sched),
		Workers:                *workers,
		Steps:                  *steps,
		Vocab:                  *vocab,
		EmbDim:                 *embDim,
		Hidden:                 *hidden,
		BatchSentences:         *batch,
		Adam:                   *adam,
		LR:                     float32(*lr),
		Seed:                   *seed,
		OverTCP:                *overTCP,
		CheckpointPath:         *ckpt,
		ResumeFrom:             *resume,
		ChaosSeed:              *chaosSeed,
		Elastic:                *elastic,
		ElasticCheckpointEvery: *ckptEvery,
		ElasticRejoin:          *rejoin,
		ElasticRejoinAfter:     *rejoinAfter,
		CrashRank:              *crashRank,
		CrashStep:              *crashStep,
		TracePath:              *tracePath,
	}
	var res *embrace.TrainResult
	var err error
	if *peers != "" {
		addrs := strings.Split(*peers, ",")
		cfg.Workers = len(addrs)
		log.SetPrefix(fmt.Sprintf("embrace-train: rank %d: ", *rank))
		res, err = embrace.TrainRank(cfg, *rank, addrs)
		if err == nil && *rank != 0 {
			log.Print("done")
			return
		}
	} else {
		res, err = embrace.Train(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy=%s sched=%s workers=%d\n", *strategy, *sched, cfg.Workers)
	if *elastic {
		fmt.Printf("elastic: %d recoveries across %d world epochs\n", res.Recoveries, len(res.Elastic))
		for _, ep := range res.Elastic {
			fmt.Printf("  epoch %d: %d workers, steps [%d,%d) -> %s", ep.Epoch, ep.Workers, ep.StartStep, ep.EndStep, ep.End)
			if len(ep.Crashed) > 0 {
				fmt.Printf(" (crashed ranks %v)", ep.Crashed)
			}
			if ep.RecoverySeconds > 0 {
				fmt.Printf(", recovered in %.3fs", ep.RecoverySeconds)
			}
			fmt.Println()
		}
		if *elasticOut != "" {
			buf, err := elasticReport(res)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*elasticOut, buf, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("elastic report written to %s\n", *elasticOut)
		}
	}
	for i, loss := range res.Losses {
		if (i+1)%*every == 0 || i == 0 || i == len(res.Losses)-1 {
			fmt.Printf("step %4d  loss %.4f\n", i+1, loss)
		}
	}
	fmt.Printf("final PPL %.2f over %d trained tokens\n", res.FinalPPL, res.TokensTrained)
	fmt.Printf("communication: %.2f MB in %d messages\n", float64(res.CommBytes)/1e6, res.CommMessages)
	if *tracePath != "" {
		phases := make([]string, 0, len(res.PhaseSeconds))
		for name := range res.PhaseSeconds {
			phases = append(phases, name)
		}
		sort.Slice(phases, func(i, j int) bool {
			return res.PhaseSeconds[phases[i]] > res.PhaseSeconds[phases[j]]
		})
		fmt.Println("time by phase (summed over ranks):")
		for _, name := range phases {
			fmt.Printf("  %-22s %8.3fms\n", name, res.PhaseSeconds[name]*1e3)
		}
		fmt.Printf("wrote %s (open in Perfetto or chrome://tracing)\n", *tracePath)
	}
}

// elasticReport renders the -elastic-report JSON: per epoch the fields the
// table above prints, so the fault value and shard moves stay out of it.
func elasticReport(res *embrace.TrainResult) ([]byte, error) {
	type epoch struct {
		Epoch, Workers, StartStep, EndStep int
		End                                string
		Crashed                            []int
		RecoverySeconds                    float64
	}
	epochs := make([]epoch, len(res.Elastic))
	for i, ep := range res.Elastic {
		epochs[i] = epoch{ep.Epoch, ep.Workers, ep.StartStep, ep.EndStep, ep.End, ep.Crashed, ep.RecoverySeconds}
	}
	buf, err := json.MarshalIndent(struct {
		Recoveries int     `json:"recoveries"`
		Epochs     []epoch `json:"epochs"`
		FinalPPL   float64 `json:"final_ppl"`
	}{res.Recoveries, epochs, res.FinalPPL}, "", "  ")
	return append(buf, '\n'), err
}
