package trainer

import (
	"fmt"
	"math"
	"testing"

	"embrace/internal/comm"

	"embrace/internal/data"
	"embrace/internal/strategies"
)

func testJob(name strategies.Name, workers int) Job {
	return Job{
		Strategy: name,
		Workers:  workers,
		Steps:    4,
		Window:   4,
		Model: strategies.Config{
			Seed:      77,
			Vocab:     40,
			EmbDim:    8,
			Hidden:    6,
			Optimizer: strategies.OptSGD,
			LR:        0.05,
		},
		Data: data.Config{
			VocabSize:      40,
			BatchSentences: 5,
			MaxSeqLen:      8,
			MinSeqLen:      5,
			ZipfS:          1.4,
			ZipfV:          2,
		},
		DataSeed: 1000,
	}
}

func TestJobValidate(t *testing.T) {
	good := testJob(strategies.EmbRace, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Job){
		func(j *Job) { j.Workers = 0 },
		func(j *Job) { j.Steps = 0 },
		func(j *Job) { j.Window = 0 },
		func(j *Job) { j.Window = 10 }, // >= MinSeqLen
		func(j *Job) { j.Data.VocabSize = 41 },
		func(j *Job) { j.Model.EmbDim = 9 }, // not divisible by workers
		func(j *Job) { j.Data.ZipfS = 0.5 },
	}
	for i, mutate := range cases {
		j := testJob(strategies.EmbRace, 4)
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestWindowsTargets(t *testing.T) {
	b := &data.Batch{Sentences: [][]int64{{1, 2, 3, 4, 5, 0}, {7, 8, 9, 10, 11, 12}}}
	w, tg := WindowsTargets(b, 4)
	if len(w) != 2 || len(tg) != 2 {
		t.Fatalf("lens %d %d", len(w), len(tg))
	}
	if w[0][0] != 1 || w[0][3] != 4 || tg[0] != 5 {
		t.Fatalf("pair 0 = %v -> %d", w[0], tg[0])
	}
	if tg[1] != 11 {
		t.Fatalf("pair 1 target = %d", tg[1])
	}
}

func TestEveryStrategyRuns(t *testing.T) {
	for _, name := range strategies.AllNames() {
		res, err := Run(testJob(name, 4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Losses) != 4 {
			t.Fatalf("%s: %d losses", name, len(res.Losses))
		}
		for i, l := range res.Losses {
			if l <= 0 {
				t.Fatalf("%s: loss[%d] = %v", name, i, l)
			}
		}
		if res.Embedding == nil || res.Trunk == nil {
			t.Fatalf("%s: missing final state", name)
		}
		if res.TokensTrained <= 0 {
			t.Fatalf("%s: tokens = %d", name, res.TokensTrained)
		}
	}
}

// The central correctness result: with identical seeds and data, every
// synchronous strategy — four baselines plus EmbRace's model-parallel
// AlltoAll — must produce the same final parameters, up to float32
// reduction-order noise.
func TestCrossStrategyEquivalenceSGD(t *testing.T) {
	ref, err := Run(testJob(strategies.HorovodAllGather, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strategies.AllNames() {
		if name == strategies.HorovodAllGather {
			continue
		}
		res, err := Run(testJob(name, 4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Embedding.AllClose(ref.Embedding, 1e-4) {
			t.Fatalf("%s embedding diverged by %v", name, res.Embedding.MaxAbsDiff(ref.Embedding))
		}
		if !res.Trunk.W1.AllClose(ref.Trunk.W1, 1e-4) || !res.Trunk.W2.AllClose(ref.Trunk.W2, 1e-4) {
			t.Fatalf("%s trunk diverged", name)
		}
	}
}

func TestCrossStrategyEquivalenceAdam(t *testing.T) {
	mk := func(name strategies.Name, sched strategies.SchedMode) Job {
		j := testJob(name, 4)
		j.Model.Optimizer = strategies.OptAdam
		j.Model.LR = 0.01
		j.Model.Sched = sched
		return j
	}
	ref, err := Run(mk(strategies.HorovodAllGather, strategies.SchedNone))
	if err != nil {
		t.Fatal(err)
	}
	// EmbRace with 2D scheduling splits every sparse update in two, yet the
	// modified Adam must keep it equivalent to the whole-update baselines.
	for _, sched := range []strategies.SchedMode{strategies.SchedNone, strategies.Sched2D} {
		res, err := Run(mk(strategies.EmbRace, sched))
		if err != nil {
			t.Fatalf("sched %v: %v", sched, err)
		}
		if !res.Embedding.AllClose(ref.Embedding, 1e-4) {
			t.Fatalf("sched %v: embedding diverged by %v", sched, res.Embedding.MaxAbsDiff(ref.Embedding))
		}
	}
}

func TestEmbRace2DEqualsWholeUpdateExactly(t *testing.T) {
	// The split itself (same strategy, same reduction orders) must be
	// bit-exact under the modified Adam, not merely close.
	mk := func(sched strategies.SchedMode) Job {
		j := testJob(strategies.EmbRace, 4)
		j.Model.Optimizer = strategies.OptAdam
		j.Model.LR = 0.01
		j.Model.Sched = sched
		return j
	}
	whole, err := Run(mk(strategies.SchedNone))
	if err != nil {
		t.Fatal(err)
	}
	split, err := Run(mk(strategies.Sched2D))
	if err != nil {
		t.Fatal(err)
	}
	if !whole.Embedding.AllClose(split.Embedding, 0) {
		t.Fatalf("2D split changed the update by %v", whole.Embedding.MaxAbsDiff(split.Embedding))
	}
}

func TestLossDecreasesOverTraining(t *testing.T) {
	j := testJob(strategies.EmbRace, 2)
	j.Steps = 30
	j.Model.Sched = strategies.Sched2D
	j.Model.Optimizer = strategies.OptAdam
	j.Model.LR = 0.02
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	first := (res.Losses[0] + res.Losses[1] + res.Losses[2]) / 3
	n := len(res.Losses)
	last := (res.Losses[n-1] + res.Losses[n-2] + res.Losses[n-3]) / 3
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestRunSingleWorker(t *testing.T) {
	// N=1 degenerates every collective to a no-op but must still train.
	j := testJob(strategies.EmbRace, 1)
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != j.Steps {
		t.Fatal("missing losses")
	}
}

func TestRunRejectsInvalidJob(t *testing.T) {
	j := testJob(strategies.EmbRace, 3) // EmbDim 8 not divisible by 3
	if _, err := Run(j); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTrainingOverTCPMatchesInProcess(t *testing.T) {
	// The transport must be invisible to training results: the same job run
	// over loopback TCP sockets produces the same losses and parameters as
	// the in-process fabric, to the bit.
	j := testJob(strategies.EmbRace, 4)
	j.Model.Sched = strategies.Sched2D
	inproc, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	j.OverTCP = true
	tcp, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	sameBitsResult(t, "EmbRace over TCP", inproc, tcp)
}

// Every strategy trains over TCP to the bits of its in-process run: the
// losses as float64 bits, the final embedding and the final trunk.
func TestAllStrategiesOverTCP(t *testing.T) {
	for _, name := range strategies.AllNames() {
		j := testJob(name, 2)
		j.Steps = 2
		inproc, err := Run(j)
		if err != nil {
			t.Fatalf("%s in process: %v", name, err)
		}
		j.OverTCP = true
		tcp, err := Run(j)
		if err != nil {
			t.Fatalf("%s over TCP: %v", name, err)
		}
		sameBitsResult(t, string(name)+" over TCP", inproc, tcp)
	}
}

// sameBitsResult is sameResult with the losses compared as float64 bits.
func sameBitsResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if len(got.Losses) != len(ref.Losses) {
		t.Fatalf("%s: %d losses, want %d", label, len(got.Losses), len(ref.Losses))
	}
	for i := range ref.Losses {
		if math.Float64bits(ref.Losses[i]) != math.Float64bits(got.Losses[i]) {
			t.Fatalf("%s: loss[%d] = %v, want %v", label, i, got.Losses[i], ref.Losses[i])
		}
	}
	sameResult(t, label, ref, got)
}

func TestEmbRaceMovesFewerEmbeddingBytesThanAllGather(t *testing.T) {
	// The real-mode counterpart of the Table-2 analysis: AllGather ships
	// each rank's whole embedding gradient to every peer, while EmbRace's
	// AlltoAll ships 1/N-width column slices — measured bytes on the real
	// transport must reflect it. A tiny trunk keeps dense traffic from
	// masking the embedding traffic.
	mk := func(name strategies.Name) Job {
		j := testJob(name, 4)
		j.Steps = 3
		j.Model.Vocab = 200
		j.Data.VocabSize = 200
		j.Model.EmbDim = 64
		j.Model.Hidden = 2
		j.Data.BatchSentences = 24
		if name == strategies.EmbRace {
			j.Model.Sched = strategies.Sched2D
		}
		return j
	}
	gather, err := Run(mk(strategies.HorovodAllGather))
	if err != nil {
		t.Fatal(err)
	}
	embrace, err := Run(mk(strategies.EmbRace))
	if err != nil {
		t.Fatal(err)
	}
	if embrace.Comm.PayloadBytes >= gather.Comm.PayloadBytes {
		t.Fatalf("EmbRace moved %d bytes, AllGather %d — hybrid comm should move less",
			embrace.Comm.PayloadBytes, gather.Comm.PayloadBytes)
	}
	ratio := float64(gather.Comm.PayloadBytes) / float64(embrace.Comm.PayloadBytes)
	if ratio < 1.5 {
		t.Fatalf("traffic reduction only %.2fx; expected a clear win on an embedding-dominated job", ratio)
	}
	if gather.Comm.Messages == 0 || embrace.Comm.RecvSeconds <= 0 {
		t.Fatalf("counters not populated: %+v", embrace.Comm)
	}
}

func TestRunWorkerMatchesRun(t *testing.T) {
	// Multi-process entry point driven in-process: RunWorker per rank over
	// a TCP world must reproduce Run's results exactly.
	j := testJob(strategies.EmbRace, 2)
	j.Model.Sched = strategies.Sched2D
	ref, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 2)
	err = comm.RunRanksTCP(2, func(tr comm.Transport) error {
		res, err := RunWorker(j, tr)
		if err != nil {
			return err
		}
		results[tr.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0] // rank 0 aggregates
	for i := range ref.Losses {
		d := got.Losses[i] - ref.Losses[i]
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("loss[%d] %v vs %v", i, got.Losses[i], ref.Losses[i])
		}
	}
	if !got.Embedding.AllClose(ref.Embedding, 1e-9) {
		t.Fatal("embedding diverged")
	}
}

func TestPSStrategiesRunWorkerOverTCPMatchesRun(t *testing.T) {
	// The parameter-server baselines keep their server shards on the ranks,
	// so they run one rank per process like every other strategy: RunWorker
	// over a TCP world reproduces Run to the bit.
	for _, name := range []strategies.Name{strategies.BytePS, strategies.Parallax} {
		j := testJob(name, 4)
		j.Model.Optimizer = strategies.OptAdam
		ref, err := Run(j)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*Result, 4)
		err = comm.RunRanksTCP(4, func(tr comm.Transport) error {
			res, err := RunWorker(j, tr)
			results[tr.Rank()] = res
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameResult(t, string(name)+" RunWorker", ref, results[0])
	}
	// World-size mismatch.
	j2 := testJob(strategies.EmbRace, 4)
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		if _, err := RunWorker(j2, tr); err == nil {
			return fmt.Errorf("expected size mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Run's wire traffic is pinned per op: a plain run builds one world and
// sends nothing beyond the strategy's exchanges and the stats gather — no
// world barrier, no message at step boundaries. The values were measured on
// a 4-rank Sched2D EmbRace run of testJob.
//
// The two sparse AlltoAlls run 4 ranks × 3 peers × 4 steps = 48 streams
// each. A stream opens with one [rows, dim, indices…] frame, then one value
// frame if it has rows. Against a separate header frame (0 B) before the
// index and value frames, that is 16 B more per stream and one message less
// per non-empty stream: emb/grad (48 non-empty) 144 → 96 messages and
// 14016 + 48·16 = 14784 B; emb/delayed (42 non-empty) 132 → 90 messages and
// 1344 + 48·16 = 2112 B; in total 540 − 90 = 450 messages and
// 67128 + 96·16 = 68664 B.
func TestRunWireTrafficPinned(t *testing.T) {
	j := testJob(strategies.EmbRace, 4)
	j.Model.Sched = strategies.Sched2D
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int64{ // op -> {Messages, PayloadBytes}
		"dense/trunk":      {96, 32064},
		"emb/data":         {48, 1920},
		"emb/delayed":      {90, 2112},
		"emb/gather-table": {12, 3840},
		"emb/grad":         {96, 14784},
		"emb/next-batch":   {48, 5976},
		"emb/tokens":       {48, 7680},
		"trainer/stats":    {12, 288},
	}
	if len(res.CommPerOp) != len(want) {
		t.Errorf("%d ops recorded, want %d: %v", len(res.CommPerOp), len(want), res.CommPerOp)
	}
	for op, w := range want {
		s := res.CommPerOp[op]
		if got := [2]int64{s.Messages, s.PayloadBytes}; got != w {
			t.Errorf("%s: {Messages, PayloadBytes} = %v, want %v", op, got, w)
		}
	}
	if res.Comm.Messages != 450 || res.Comm.PayloadBytes != 68664 {
		t.Errorf("total = %d messages / %d bytes, want 450 / 68664", res.Comm.Messages, res.Comm.PayloadBytes)
	}
}
