// Serving: the full model lifecycle in one program — train a language model
// with EmbRace's hybrid communication, checkpoint it, boot a 4-rank sharded
// inference deployment from the checkpoint, and fire a closed-loop Zipf
// burst at it. The front end coalesces concurrent requests, dedups repeated
// ids, keeps hot embedding rows in an LRU cache, and resolves the rest over
// the same sparse AlltoAll the trainer used — then hot-swaps a further-trained
// checkpoint with zero downtime.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"embrace"
)

func main() {
	log.SetFlags(0)

	dir, err := os.MkdirTemp("", "embrace-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckptA := filepath.Join(dir, "step20.ckpt")
	ckptB := filepath.Join(dir, "step40.ckpt")

	// Train briefly and checkpoint; then train on and checkpoint again so we
	// have a newer model to hot-swap in.
	train := embrace.TrainConfig{
		Strategy: embrace.EmbRace,
		Sched:    embrace.Sched2D,
		Workers:  4,
		Steps:    20,
		Vocab:    1000,
		EmbDim:   16,
		Hidden:   16,
		Adam:     true,
		Seed:     7,
	}
	train.CheckpointPath = ckptA
	if _, err := embrace.Train(train); err != nil {
		log.Fatal(err)
	}
	train.CheckpointPath = ckptB
	train.ResumeFrom = ckptA
	if _, err := embrace.Train(train); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained and checkpointed: %s, %s\n", filepath.Base(ckptA), filepath.Base(ckptB))

	// Serve the first checkpoint across 4 ranks: two ingress drivers front
	// the cluster (each with its own LRU), rows live on a consistent-hash
	// ring, and the hottest rows replicate to every driver.
	srv, err := embrace.Serve(ckptA, embrace.ServeConfig{
		Ranks:     4,
		Drivers:   2,
		Partition: embrace.ServeConsistent,
		CacheRows: 128,
		Replicate: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	tok, prob, err := srv.Predict(context.Background(), []int64{1, 2, 3, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predict [1 2 3 4] -> token %d (p=%.4f)\n", tok, prob)

	// Zipf burst: 8 closed-loop clients, hot ids repeat, the cache absorbs
	// them. Halfway through, hot-swap the newer checkpoint.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		if err := srv.Reload(ckptB); err != nil {
			log.Printf("reload: %v", err)
			return
		}
		fmt.Println("hot-swapped step40 checkpoint mid-burst, zero downtime")
	}()
	res := srv.RunLoad(embrace.LoadSpec{
		Clients:  8,
		Requests: 300,
		Seed:     1,
	})
	<-done

	st := srv.Stats()
	fmt.Printf("\nburst: %d requests over %d drivers, %.0f QPS, p99 %.2fms\n",
		res.Requests, st.Drivers, res.QPS, res.Latency.P99*1e3)
	fmt.Printf("coalescing removed %d duplicate ids across %d batches (%d exchanges)\n",
		st.Coalesced, st.Batches, st.Exchanges)
	fmt.Printf("cache hit rate %.1f%% (%d hits, %d misses); hot set: %d resident, %.1f%% hit rate\n",
		100*st.Cache.HitRate(), st.Cache.Hits, st.Cache.Misses, st.Hot.Resident, 100*st.Hot.HitRate())
}
