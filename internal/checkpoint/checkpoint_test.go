package checkpoint

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"embrace/internal/data"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/tensor"
)

// windowsTargets mirrors trainer.WindowsTargets; inlined here because the
// trainer package now imports checkpoint (elastic restore), so the test
// cannot import it back without a cycle.
func windowsTargets(b *data.Batch, window int) ([][]int64, []int64) {
	windows := make([][]int64, len(b.Sentences))
	targets := make([]int64, len(b.Sentences))
	for i, s := range b.Sentences {
		windows[i] = s[:window]
		targets[i] = s[window]
	}
	return windows, targets
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := tensor.RandDense(rng, 1, 4, 3)
	adam := optim.NewAdamDefault(p, 0.01)
	g, _ := tensor.NewSparse(4, 3, []int64{1}, []float32{1, 2, 3})
	if err := adam.StepSparse(g); err != nil {
		t.Fatal(err)
	}
	st, err := optim.Snapshot(adam)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &Checkpoint{
		Step:   1,
		Params: map[string]*tensor.Dense{"emb": p},
		Optim:  map[string]optim.State{"emb": st},
	}
	var buf bytes.Buffer
	if err := Save(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 1 {
		t.Fatalf("step = %d", got.Step)
	}
	if !got.Params["emb"].AllClose(p, 0) {
		t.Fatal("params not preserved")
	}
	if got.Optim["emb"].Kind != "adam" || got.Optim["emb"].Step != 1 {
		t.Fatalf("optim state %+v", got.Optim["emb"])
	}
	if !got.Optim["emb"].M.AllClose(st.M, 0) {
		t.Fatal("adam moments not preserved")
	}
}

// Floats are saved as their bits: signalling and negative NaN payloads,
// negative zero, the infinities and a subnormal reload bit-equal, in the
// parameters and in the optimizer state.
func TestSaveLoadPreservesBits(t *testing.T) {
	bits := []uint32{0x7f800001, 0xffc00001, 0x80000000, 0x7f800000, 0xff800000, 0x00000001}
	vals := make([]float32, len(bits))
	for i, b := range bits {
		vals[i] = math.Float32frombits(b)
	}
	p, err := tensor.FromSlice(vals, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &Checkpoint{
		Step:   3,
		Params: map[string]*tensor.Dense{"emb": p},
		Optim:  map[string]optim.State{"emb": {Kind: "adam", M: p.Clone(), V: p.Clone(), Step: 3}},
	}
	var buf bytes.Buffer
	if err := Save(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCheckpoint(ckpt, got) {
		for i, v := range got.Params["emb"].Data() {
			t.Logf("elem %d: saved %08x, loaded %08x", i, bits[i], math.Float32bits(v))
		}
		t.Fatal("float bits changed across Save and Load")
	}
}

// The same snapshot saves to the same bytes, however often it is saved and
// in whatever order its maps were built.
func TestSaveIsDeterministic(t *testing.T) {
	c, raw := fixture(t)
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := Save(&buf, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("save %d differs from the first", i)
		}
	}
	for _, order := range [][]string{{"w1", "emb"}, {"emb", "w1"}} {
		re := &Checkpoint{Step: c.Step, Params: map[string]*tensor.Dense{}, Optim: c.Optim}
		for _, name := range order {
			re.Params[name] = c.Params[name]
		}
		var buf bytes.Buffer
		if err := Save(&buf, re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("params inserted in order %v save differently", order)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error")
	}
	// An intact file whose magic is damaged.
	var buf bytes.Buffer
	if err := Save(&buf, &Checkpoint{Step: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len("not")] ^= 0xff // corrupt somewhere in the header
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected corruption error")
	}
}

func TestSaveNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ckpt := &Checkpoint{Step: 7, Params: map[string]*tensor.Dense{"p": tensor.Full(2, 3)}}
	if err := SaveFile(path, ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || got.Params["p"].Data()[0] != 2 {
		t.Fatalf("round trip %+v", got)
	}
	// Overwrite must leave no temp litter.
	ckpt.Step = 8
	if err := SaveFile(path, ckpt); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("expected open error")
	}
}

// snapshotModel checkpoints an nn.Model with per-parameter Adam optimizers.
func snapshotModel(t *testing.T, step int, m *nn.Model, opts map[string]optim.Optimizer) *Checkpoint {
	t.Helper()
	ckpt := &Checkpoint{
		Step:   step,
		Params: map[string]*tensor.Dense{"emb": m.Emb.Table.Clone()},
		Optim:  map[string]optim.State{},
	}
	for _, p := range m.Trunk.Params() {
		ckpt.Params[p.Name] = p.Tensor.Clone()
	}
	for name, o := range opts {
		st, err := optim.Snapshot(o)
		if err != nil {
			t.Fatal(err)
		}
		ckpt.Optim[name] = st
	}
	return ckpt
}

// The production guarantee: training S steps, checkpointing, and resuming
// for T more steps is bit-identical to training S+T steps straight through.
func TestResumeIsBitIdentical(t *testing.T) {
	const split, total = 6, 12
	cfg := data.Config{
		VocabSize: 50, BatchSentences: 6, MaxSeqLen: 8, MinSeqLen: 6,
		ZipfS: 1.5, ZipfV: 2,
	}

	train := func(m *nn.Model, opts map[string]optim.Optimizer, loader *data.Loader, steps int) {
		for s := 0; s < steps; s++ {
			batch := loader.Next()
			windows, targets := windowsTargets(batch, 4)
			_, embGrad, grads, err := m.Step(windows, targets)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range grads.Dense() {
				if err := opts[g.Name].StepDense(g.Tensor); err != nil {
					t.Fatal(err)
				}
			}
			if err := opts["emb"].StepSparse(embGrad); err != nil {
				t.Fatal(err)
			}
		}
	}
	newOpts := func(m *nn.Model) map[string]optim.Optimizer {
		opts := map[string]optim.Optimizer{"emb": optim.NewAdamDefault(m.Emb.Table, 0.01)}
		for _, p := range m.Trunk.Params() {
			opts[p.Name] = optim.NewAdamDefault(p.Tensor, 0.01)
		}
		return opts
	}

	// Straight-through reference.
	ref := nn.NewModel(3, 50, 8, 8)
	refOpts := newOpts(ref)
	gen, err := data.NewGenerator(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	refLoader := data.NewLoader(gen)
	train(ref, refOpts, refLoader, total)

	// Interrupted run: train, checkpoint, rebuild everything, restore,
	// continue on a fresh loader advanced to the same position.
	m1 := nn.NewModel(3, 50, 8, 8)
	opts1 := newOpts(m1)
	gen1, _ := data.NewGenerator(cfg, 9)
	loader1 := data.NewLoader(gen1)
	train(m1, opts1, loader1, split)
	ckpt := snapshotModel(t, split, m1, opts1)

	var buf bytes.Buffer
	if err := Save(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	m2 := nn.NewModel(99, 50, 8, 8) // different init: must be overwritten
	opts2 := newOpts(m2)
	copy(m2.Emb.Table.Data(), restored.Params["emb"].Data())
	for _, p := range m2.Trunk.Params() {
		copy(p.Tensor.Data(), restored.Params[p.Name].Data())
	}
	for name, o := range opts2 {
		if err := optim.Restore(o, restored.Optim[name]); err != nil {
			t.Fatal(err)
		}
	}
	gen2, _ := data.NewGenerator(cfg, 9)
	loader2 := data.NewLoader(gen2)
	for s := 0; s < split; s++ { // fast-forward the data stream
		loader2.Next()
	}
	train(m2, opts2, loader2, total-split)

	if !ref.Emb.Table.AllClose(m2.Emb.Table, 0) {
		t.Fatalf("resumed embedding diverged by %v", ref.Emb.Table.MaxAbsDiff(m2.Emb.Table))
	}
	if !ref.Trunk.W1.AllClose(m2.Trunk.W1, 0) || !ref.Trunk.W2.AllClose(m2.Trunk.W2, 0) {
		t.Fatal("resumed trunk diverged")
	}
}

func TestOptimStateMismatch(t *testing.T) {
	p := tensor.NewDense(4)
	adam := optim.NewAdamDefault(p, 0.01)
	if err := optim.Restore(adam, optim.State{Kind: "sgd"}); err == nil {
		t.Fatal("expected kind mismatch error")
	}
	sgd := optim.NewSGD(p, 0.1)
	if err := optim.Restore(sgd, optim.State{Kind: "adam"}); err == nil {
		t.Fatal("expected kind mismatch error")
	}
	ada := optim.NewAdagrad(p, 0.1, 1e-10)
	if err := optim.Restore(ada, optim.State{Kind: "adagrad", Accum: tensor.NewDense(5)}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	// Adagrad round trip.
	g := tensor.Full(1, 4)
	if err := ada.StepDense(g); err != nil {
		t.Fatal(err)
	}
	st, err := optim.Snapshot(ada)
	if err != nil {
		t.Fatal(err)
	}
	ada2 := optim.NewAdagrad(tensor.NewDense(4), 0.1, 1e-10)
	if err := optim.Restore(ada2, st); err != nil {
		t.Fatal(err)
	}
}
