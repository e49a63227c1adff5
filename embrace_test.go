package embrace_test

import (
	"bytes"
	"errors"
	"math"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"embrace"
	"embrace/internal/checkpoint"
)

func TestStrategiesAndModels(t *testing.T) {
	if len(embrace.Strategies()) != 5 {
		t.Fatalf("want 5 strategies, got %d", len(embrace.Strategies()))
	}
	models := embrace.Models()
	want := []string{"LM", "GNMT-8", "Transformer", "BERT-base"}
	if len(models) != len(want) {
		t.Fatalf("models = %v", models)
	}
	for i, m := range models {
		if m != want[i] {
			t.Fatalf("models[%d] = %s, want %s", i, m, want[i])
		}
	}
}

func TestSimulateBasics(t *testing.T) {
	res, err := embrace.Simulate(embrace.SimJob{
		Model: "GNMT-8", GPU: embrace.RTX3090, GPUs: 8,
		Strategy: embrace.EmbRace, Sched: embrace.Sched2D,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepSeconds <= 0 || res.TokensPerSec <= 0 || res.StallSeconds < 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.StepSeconds < res.ComputeSeconds {
		t.Fatal("step cannot be shorter than compute")
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := []embrace.SimJob{
		{Model: "nope", GPU: embrace.RTX3090, GPUs: 8, Strategy: embrace.EmbRace},
		{Model: "LM", GPU: "GTX1080", GPUs: 8, Strategy: embrace.EmbRace},
		{Model: "LM", GPU: embrace.RTX3090, GPUs: 8, Strategy: "carrier-pigeon"},
		{Model: "LM", GPU: embrace.RTX3090, GPUs: 8, Strategy: embrace.EmbRace, Sched: "3d"},
		{Model: "LM", GPU: embrace.RTX3090, GPUs: 0, Strategy: embrace.EmbRace},
	}
	for i, job := range bad {
		if _, err := embrace.Simulate(job); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestSimulateEmbRaceWinsHeadline(t *testing.T) {
	// The headline claim through the public API: EmbRace beats the best
	// baseline on LM at 16 RTX2080s by roughly 2x.
	var best, emb float64
	for _, s := range embrace.Strategies() {
		sched := embrace.SchedNone
		if s == embrace.EmbRace {
			sched = embrace.Sched2D
		}
		res, err := embrace.Simulate(embrace.SimJob{
			Model: "LM", GPU: embrace.RTX2080, GPUs: 16, Strategy: s, Sched: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s == embrace.EmbRace {
			emb = res.TokensPerSec
		} else if res.TokensPerSec > best {
			best = res.TokensPerSec
		}
	}
	if ratio := emb / best; ratio < 1.8 || ratio > 2.8 {
		t.Fatalf("LM@16xRTX2080 speedup %.2fx, want ~2x (paper: 1.99-2.41x)", ratio)
	}
}

func TestTrainAllStrategiesAgree(t *testing.T) {
	results := map[embrace.Strategy]*embrace.TrainResult{}
	for _, s := range embrace.Strategies() {
		cfg := embrace.TrainConfig{
			Strategy: s,
			Workers:  4,
			Steps:    6,
			Vocab:    60,
			EmbDim:   8,
			Hidden:   8,
			Adam:     true,
			Seed:     5,
		}
		if s == embrace.EmbRace {
			cfg.Sched = embrace.Sched2D
		}
		res, err := embrace.Train(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.Losses) != 6 || res.FinalPPL <= 1 {
			t.Fatalf("%s: bad result %+v", s, res)
		}
		results[s] = res
	}
	ref := results[embrace.HorovodAllGather]
	for s, res := range results {
		for i := range ref.Losses {
			d := res.Losses[i] - ref.Losses[i]
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("%s diverged from AllGather at step %d: %v vs %v", s, i, res.Losses[i], ref.Losses[i])
			}
		}
	}
}

// Masked faults are not traffic: a retried transient send or a dropped
// duplicate leaves every op's message and byte counts at their fault-free
// values.
func TestChaosTrafficMatchesFaultFree(t *testing.T) {
	cfg := embrace.TrainConfig{
		Strategy: embrace.EmbRace, Sched: embrace.Sched2D,
		Workers: 4, Steps: 6, Vocab: 60, EmbDim: 8, Hidden: 8, Adam: true, Seed: 5,
	}
	clean, err := embrace.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChaosSeed = 7
	chaos, err := embrace.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chaos.FaultsMasked == 0 {
		t.Fatal("ChaosSeed 7 masked no faults")
	}
	if len(chaos.CommPerOp) != len(clean.CommPerOp) {
		t.Fatalf("ops under chaos %v, fault-free %v", chaos.CommPerOp, clean.CommPerOp)
	}
	for op, want := range clean.CommPerOp {
		got := chaos.CommPerOp[op]
		if got.Messages != want.Messages || got.PayloadBytes != want.PayloadBytes {
			t.Errorf("%s: %d messages, %d bytes under chaos; fault-free %d, %d",
				op, got.Messages, got.PayloadBytes, want.Messages, want.PayloadBytes)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := embrace.Train(embrace.TrainConfig{Strategy: "nope", Workers: 2, Steps: 2}); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
	if _, err := embrace.Train(embrace.TrainConfig{Workers: 3, Steps: 2, EmbDim: 8}); err == nil {
		t.Fatal("expected divisibility error")
	}
	// Horizontal scheduling is a simulation level: real execution must
	// refuse it, and any unknown level, rather than silently train without
	// scheduling.
	for _, level := range []embrace.SchedLevel{embrace.SchedHorizontal, "3d"} {
		if _, err := embrace.Train(embrace.TrainConfig{Sched: level, Workers: 2, Steps: 2}); err == nil {
			t.Fatalf("sched %q: expected rejection", level)
		}
	}
}

// The elastic facade end to end: an injected crash is absorbed (shrink,
// then rejoin at full size) and the completed run still writes its final
// parameters to CheckpointPath.
func TestTrainElasticCrashWritesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "elastic.ckpt")
	res, err := embrace.Train(embrace.TrainConfig{
		Strategy:               embrace.EmbRace,
		Sched:                  embrace.Sched2D,
		Workers:                4,
		Steps:                  9,
		Vocab:                  60,
		EmbDim:                 12,
		Hidden:                 8,
		Seed:                   7,
		Elastic:                true,
		ElasticCheckpointEvery: 3,
		ElasticRejoin:          true,
		ElasticRejoinAfter:     2,
		CrashRank:              3,
		CrashStep:              4,
		CheckpointPath:         path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || len(res.Elastic) != 3 {
		t.Fatalf("recoveries %d, epochs %+v; want 1 recovery over 3 epochs", res.Recoveries, res.Elastic)
	}
	for i, want := range []struct {
		end     string
		workers int
	}{{"fault", 4}, {"rejoin", 3}, {"completed", 4}} {
		if ep := res.Elastic[i]; ep.End != want.end || ep.Workers != want.workers {
			t.Fatalf("epoch %d = %+v, want %s at %d workers", i, ep, want.end, want.workers)
		}
	}
	if len(res.Losses) != 9 || res.Losses[8] == 0 {
		t.Fatalf("losses %v: want all 9 steps", res.Losses)
	}
	ckpt, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Step != 9 {
		t.Fatalf("checkpoint step %d, want 9", ckpt.Step)
	}
	if emb := ckpt.Params["emb"]; emb == nil || !slices.Equal(emb.Shape(), []int{60, 12}) {
		t.Fatal("checkpoint embedding missing or not 60x12")
	}
}

// TrainRank is Train split across processes: two ranks meshed over loopback
// TCP, run here as goroutines, train the same job, and rank 0 reports
// Train's losses to the bit — under EmbRace and under both parameter-server
// baselines, whose server shards live on the ranks.
func TestTrainRankMatchesTrain(t *testing.T) {
	cfg := embrace.TrainConfig{
		Strategy: embrace.EmbRace,
		Sched:    embrace.Sched2D,
		Workers:  2,
		Steps:    5,
		Vocab:    60,
		EmbDim:   8,
		Hidden:   8,
		Adam:     true,
		Seed:     11,
	}
	// reservePeers reserves two loopback ports, then frees them for the
	// ranks to bind.
	reservePeers := func() []string {
		peers := make([]string, 2)
		for i := range peers {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = l.Addr().String()
			l.Close()
		}
		return peers
	}
	for _, strategy := range []embrace.Strategy{embrace.EmbRace, embrace.BytePS, embrace.Parallax} {
		cfg := cfg
		cfg.Strategy = strategy
		want, err := embrace.Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peers := reservePeers()
		results := make([]*embrace.TrainResult, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for rank := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[rank], errs[rank] = embrace.TrainRank(cfg, rank, peers)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		got := results[0].Losses
		if len(got) != len(want.Losses) {
			t.Fatalf("%s: rank 0 reported %d losses, Train %d", strategy, len(got), len(want.Losses))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.Losses[i]) {
				t.Fatalf("%s step %d: TrainRank loss %v, Train %v", strategy, i, got[i], want.Losses[i])
			}
		}
	}

	// The single-process options and unknown strategies are refused before
	// the mesh waits on peers, not silently dropped.
	peers := reservePeers()
	for name, bad := range map[string]func(*embrace.TrainConfig){
		"unknown":        func(c *embrace.TrainConfig) { c.Strategy = "nope" },
		"Elastic":        func(c *embrace.TrainConfig) { c.Elastic = true },
		"ChaosSeed":      func(c *embrace.TrainConfig) { c.ChaosSeed = 3 },
		"OverTCP":        func(c *embrace.TrainConfig) { c.OverTCP = true },
		"TracePath":      func(c *embrace.TrainConfig) { c.TracePath = "trace.json" },
		"CheckpointPath": func(c *embrace.TrainConfig) { c.CheckpointPath = "run.ckpt" },
		"ResumeFrom":     func(c *embrace.TrainConfig) { c.ResumeFrom = "run.ckpt" },
	} {
		c := cfg
		bad(&c)
		if _, err := embrace.TrainRank(c, 0, peers); err == nil {
			t.Fatalf("TrainRank accepted %s", name)
		}
	}
}

func TestRunExperimentThroughFacade(t *testing.T) {
	ids := embrace.ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("want 16 experiments, got %v", ids)
	}
	title, err := embrace.ExperimentTitle("table2")
	if err != nil || !strings.Contains(title, "Table 2") {
		t.Fatalf("title %q err %v", title, err)
	}
	var buf bytes.Buffer
	if err := embrace.RunExperiment("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LM") || !strings.Contains(buf.String(), "97.2") {
		t.Fatalf("table1 output missing LM row: %s", buf.String())
	}
	if err := embrace.RunExperiment("nope", &buf); err == nil {
		t.Fatal("expected unknown experiment error")
	}
}

func TestTrainSeqThroughFacade(t *testing.T) {
	res, err := embrace.TrainSeq(embrace.SeqTrainConfig{
		Workers:  2,
		Steps:    8,
		Vertical: true,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 8 || res.FinalPPL <= 1 || res.CommBytes <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Losses[7] >= res.Losses[0] {
		t.Fatalf("seq loss did not decrease: %v -> %v", res.Losses[0], res.Losses[7])
	}
	if _, err := embrace.TrainSeq(embrace.SeqTrainConfig{Workers: 0, Steps: 1}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEstimateCommCost(t *testing.T) {
	c, err := embrace.EstimateCommCost(0.1, 252.5, 16, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The §4.1.2 ordering for sparse tensors at scale.
	if !(c.AllToAll < c.PS && c.PS < c.AllGather && c.AllGather < c.AllReduce) {
		t.Fatalf("cost ordering wrong: %+v", c)
	}
	bad := []struct {
		a, m float64
		w, n int
		g    float64
	}{
		{-0.1, 100, 4, 1, 100},
		{1.5, 100, 4, 1, 100},
		{0.5, 0, 4, 1, 100},
		{0.5, 100, 0, 1, 100},
		{0.5, 100, 4, 0, 100},
		{0.5, 100, 4, 1, 0},
	}
	for i, b := range bad {
		if _, err := embrace.EstimateCommCost(b.a, b.m, b.w, b.n, b.g); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	base := embrace.TrainConfig{
		Strategy: embrace.EmbRace,
		Sched:    embrace.Sched2D,
		Workers:  2,
		Steps:    8,
		Vocab:    50,
		EmbDim:   8,
		Hidden:   8,
		Adam:     false, // SGD: stateless, so resume is exact
		LR:       0.05,
		Seed:     31,
	}
	straight, err := embrace.Train(base)
	if err != nil {
		t.Fatal(err)
	}

	first := base
	first.Steps = 5
	first.CheckpointPath = path
	if _, err := embrace.Train(first); err != nil {
		t.Fatal(err)
	}
	second := base
	second.Steps = 3
	second.ResumeFrom = path
	resumed, err := embrace.Train(second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resumed.Losses[i] != straight.Losses[5+i] {
			t.Fatalf("resumed loss[%d] %v != straight loss[%d] %v",
				i, resumed.Losses[i], 5+i, straight.Losses[5+i])
		}
	}
	if _, err := embrace.Train(embrace.TrainConfig{
		Strategy: embrace.EmbRace, Workers: 2, Steps: 1, ResumeFrom: filepath.Join(dir, "missing"),
	}); err == nil {
		t.Fatal("expected missing-checkpoint error")
	}
}
