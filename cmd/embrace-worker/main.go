// Command embrace-worker runs ONE rank of a distributed training job in its
// own OS process, meshing with its peers over TCP — real multi-process
// distributed training with EmbRace's hybrid communication.
//
// Start one process per rank with the same peer list, e.g. a 4-rank local
// cluster:
//
//	embrace-worker -rank 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	embrace-worker -rank 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	embrace-worker -rank 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	embrace-worker -rank 3 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//
// Only the peer-to-peer strategies run multi-process (horovod-allreduce,
// horovod-allgather, embrace); the PS baselines need process-shared server
// state and are single-process only.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"embrace/internal/comm"
	"embrace/internal/data"
	"embrace/internal/strategies"
	"embrace/internal/trainer"
)

func main() {
	log.SetFlags(0)

	var (
		rank     = flag.Int("rank", 0, "this process's rank")
		peers    = flag.String("peers", "", "comma-separated host:port list, one per rank, in rank order")
		strategy = flag.String("strategy", "embrace", "horovod-allreduce | horovod-allgather | embrace")
		sched    = flag.String("sched", "2d", "embrace scheduling: none | 2d")
		steps    = flag.Int("steps", 30, "training steps")
		vocab    = flag.Int("vocab", 2000, "vocabulary size")
		embDim   = flag.Int("dim", 32, "embedding dimension (divisible by world size)")
		hidden   = flag.Int("hidden", 32, "hidden width")
		batch    = flag.Int("batch", 16, "sentences per worker per step")
		adam     = flag.Bool("adam", true, "use Adam")
		lr       = flag.Float64("lr", 0.01, "learning rate")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) < 1 {
		log.Fatal("need -peers host:port,host:port,... (one per rank)")
	}
	log.SetPrefix(fmt.Sprintf("rank %d: ", *rank))
	sm, err := strategies.ParseSched(*sched)
	if err != nil {
		log.Fatal(err)
	}

	node, err := comm.NewTCPNode(*rank, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	log.Printf("mesh connected (%d ranks)", node.Size())

	opt := strategies.OptSGD
	if *adam {
		opt = strategies.OptAdam
	}
	job := trainer.Job{
		Strategy: strategies.Name(*strategy),
		Workers:  len(addrs),
		Steps:    *steps,
		Window:   4,
		Model: strategies.Config{
			Seed:      *seed,
			Vocab:     *vocab,
			EmbDim:    *embDim,
			Hidden:    *hidden,
			Optimizer: opt,
			LR:        float32(*lr),
			Sched:     sm,
		},
		Data: data.Config{
			VocabSize:      *vocab,
			BatchSentences: *batch,
			MaxSeqLen:      10,
			MinSeqLen:      6,
			ZipfS:          1.5,
			ZipfV:          4,
		},
		DataSeed: *seed + 1,
	}
	res, err := trainer.RunWorker(job, node)
	if err != nil {
		log.Fatal(err)
	}
	if *rank == 0 {
		for i := 0; i < len(res.Losses); i += 5 {
			log.Printf("step %4d loss %.4f acc %.3f", i+1, res.Losses[i], res.Accuracies[i])
		}
		last := len(res.Losses) - 1
		log.Printf("done: final loss %.4f, %.2f MB communicated by this rank",
			res.Losses[last], float64(res.Comm.PayloadBytes)/1e6)
	} else {
		log.Printf("done")
	}
}
