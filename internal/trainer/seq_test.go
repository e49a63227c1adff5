package trainer

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"embrace/internal/data"
)

func seqJob() SeqJob {
	return SeqJob{
		Workers: 3,
		Steps:   6,
		Window:  5,
		Vocab:   60,
		EmbDim:  6,
		Hidden:  8,
		LR:      0.02,
		Seed:    21,
		Data: data.Config{
			VocabSize:      60,
			BatchSentences: 6,
			MaxSeqLen:      8,
			MinSeqLen:      6,
			ZipfS:          1.5,
			ZipfV:          3,
		},
		DataSeed: 77,
	}
}

func TestSeqJobValidate(t *testing.T) {
	if err := seqJob().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*SeqJob){
		func(j *SeqJob) { j.Workers = 0 },
		func(j *SeqJob) { j.Steps = 0 },
		func(j *SeqJob) { j.Window = 0 },
		func(j *SeqJob) { j.Window = 6 }, // >= MinSeqLen
		func(j *SeqJob) { j.Vocab = 61 },
		func(j *SeqJob) { j.EmbDim = 0 },
		func(j *SeqJob) { j.LR = 0 },
		func(j *SeqJob) { j.Data.ZipfS = 0.5 },
	}
	for i, mutate := range cases {
		j := seqJob()
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestRunSeqTrains(t *testing.T) {
	j := seqJob()
	j.Steps = 25
	j.Vertical = true
	res, err := RunSeq(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != j.Steps || res.Embedding == nil {
		t.Fatal("missing results")
	}
	first := (res.Losses[0] + res.Losses[1]) / 2
	last := (res.Losses[j.Steps-1] + res.Losses[j.Steps-2]) / 2
	if last >= first {
		t.Fatalf("seq loss did not decrease: %v -> %v", first, last)
	}
	if res.Comm.PayloadBytes <= 0 || res.TokensTrained <= 0 {
		t.Fatalf("counters not populated: %+v", res.Comm)
	}
	for _, a := range res.Accuracies {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v out of range", a)
		}
	}
}

// The §5.7 property on the recurrent model: vertical split with modified
// Adam must be bit-identical to whole updates.
func TestRunSeqVerticalEqualsWhole(t *testing.T) {
	whole := seqJob()
	res1, err := RunSeq(whole)
	if err != nil {
		t.Fatal(err)
	}
	split := seqJob()
	split.Vertical = true
	res2, err := RunSeq(split)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Losses {
		if res1.Losses[i] != res2.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, res1.Losses[i], res2.Losses[i])
		}
	}
	if !res1.Embedding.AllClose(res2.Embedding, 0) {
		t.Fatalf("split diverged by %v", res1.Embedding.MaxAbsDiff(res2.Embedding))
	}
}

// RunSeq's trajectory is pinned to the bit: the per-step losses and an
// FNV-64a hash of the final embedding's float32 bits, as measured when the
// dense trunk still took one AllReduce per parameter. The single
// AllReduceBlocks pass that replaced that loop sums each element in the same
// rank order, so nothing may move. Whole and vertical modes share the values
// (TestRunSeqVerticalEqualsWhole).
func TestRunSeqPinnedTrajectory(t *testing.T) {
	wantLosses := []uint64{0x401035bff5a95dc7, 0x401068aa3613c013, 0x40106d73e41229a1,
		0x400ffbc9740ec18b, 0x400ffc6b1252c053, 0x401001ccad57fcc6}
	const wantEmb = 0xcd73a0326d51157b
	for _, vertical := range []bool{false, true} {
		j := seqJob()
		j.Vertical = vertical
		res, err := RunSeq(j)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, len(res.Losses))
		for i, l := range res.Losses {
			got[i] = math.Float64bits(l)
		}
		if !slices.Equal(got, wantLosses) {
			t.Errorf("vertical=%v: loss bits %#x, want %#x", vertical, got, wantLosses)
		}
		h := fnv.New64a()
		for _, v := range res.Embedding.Data() {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
		if h.Sum64() != wantEmb {
			t.Errorf("vertical=%v: embedding hash %#x, want %#x", vertical, h.Sum64(), uint64(wantEmb))
		}
	}
}

func TestRunSeqOverTCP(t *testing.T) {
	j := seqJob()
	j.Steps = 3
	inproc, err := RunSeq(j)
	if err != nil {
		t.Fatal(err)
	}
	j.OverTCP = true
	tcp, err := RunSeq(j)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inproc.Losses {
		if inproc.Losses[i] != tcp.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, inproc.Losses[i], tcp.Losses[i])
		}
	}
}

func TestRunSeqRejectsInvalid(t *testing.T) {
	j := seqJob()
	j.Window = 0
	if _, err := RunSeq(j); err == nil {
		t.Fatal("expected validation error")
	}
}

// realText is a tiny public-domain-style corpus with strong word reuse.
var realText = []string{
	"the old man went to the sea",
	"the sea was calm and the wind was cold",
	"the old man cast his net into the sea",
	"the net came back empty and the man waited",
	"the wind rose and the sea grew rough",
	"the man pulled the net from the rough sea",
	"the cold wind cut through the old net",
	"the sea gave the man a great fish",
	"the fish fought the net and the man",
	"the man brought the great fish to shore",
	"the shore was quiet and the wind was gone",
	"the old man slept by the calm sea",
}

func TestRunSeqOnRealText(t *testing.T) {
	j := SeqJob{
		Workers:   2,
		Steps:     30,
		Window:    5,
		Vocab:     64,
		EmbDim:    8,
		Hidden:    12,
		LR:        0.03,
		Vertical:  true,
		Seed:      13,
		Text:      realText,
		TextBatch: 3,
	}
	res, err := RunSeq(j)
	if err != nil {
		t.Fatal(err)
	}
	first := (res.Losses[0] + res.Losses[1]) / 2
	last := (res.Losses[28] + res.Losses[29]) / 2
	if last >= first {
		t.Fatalf("text training did not learn: %v -> %v", first, last)
	}
	// The tiny corpus repeats every few steps; the model should start
	// predicting next words well above chance.
	if res.Accuracies[29] < 0.2 {
		t.Fatalf("final accuracy %v suspiciously low", res.Accuracies[29])
	}
}

func TestRunSeqTextVerticalEqualsWhole(t *testing.T) {
	mk := func(vertical bool) SeqJob {
		return SeqJob{
			Workers: 2, Steps: 5, Window: 5,
			Vocab: 64, EmbDim: 8, Hidden: 12, LR: 0.03,
			Vertical: vertical, Seed: 13, Text: realText, TextBatch: 3,
		}
	}
	whole, err := RunSeq(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunSeq(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole.Losses {
		if whole.Losses[i] != split.Losses[i] {
			t.Fatalf("loss[%d]: %v vs %v", i, whole.Losses[i], split.Losses[i])
		}
	}
}

func TestRunSeqTextValidation(t *testing.T) {
	j := SeqJob{Workers: 2, Steps: 1, Window: 5, Vocab: 2, EmbDim: 4, Hidden: 4, LR: 0.01, Text: realText}
	if _, err := RunSeq(j); err == nil {
		t.Fatal("expected tiny-vocab error")
	}
	// Too few sentences for the shard.
	j2 := SeqJob{Workers: 8, Steps: 1, Window: 5, Vocab: 64, EmbDim: 4, Hidden: 4, LR: 0.01, Text: realText[:4], TextBatch: 3}
	if _, err := RunSeq(j2); err == nil {
		t.Fatal("expected shard-size error")
	}
}

// A rank that fails setup must not strand its peers: 7 sentences over 2
// workers leave rank 1 three, one short of a batch of 4, while rank 0 has
// its four and enters the first step's dense AllReduce. Rank 1 leaves the
// world on its setup error, so rank 0 fails fast instead of waiting on it.
func TestRunSeqPartialSetupFailureReturns(t *testing.T) {
	j := SeqJob{Workers: 2, Steps: 2, Window: 5, Vocab: 64, EmbDim: 4, Hidden: 4, LR: 0.01,
		Text: realText[:7], TextBatch: 4}
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := RunSeq(j)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err == nil {
			t.Fatal("expected rank 1's setup error")
		}
		if o.res == nil {
			t.Fatal("partial result discarded")
		}
		var fe *FaultError
		if !errors.As(o.err, &fe) || fe.Rank != 0 || fe.Step != 0 {
			t.Fatalf("rank 0's fault not attributed: %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunSeq hung on a partial setup failure")
	}
}
