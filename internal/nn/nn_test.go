package nn

import (
	"math"
	"math/rand"
	"testing"

	"embrace/internal/tensor"
)

func tinyModel(seed int64) *Model {
	return NewModel(seed, 7, 4, 5)
}

func tinyBatch() ([][]int64, []int64) {
	tokens := [][]int64{{1, 2}, {3, 3}, {0, 5}}
	targets := []int64{2, 4, 6}
	return tokens, targets
}

func TestNewModelDeterministic(t *testing.T) {
	a, b := tinyModel(9), tinyModel(9)
	if !a.Emb.Table.AllClose(b.Emb.Table, 0) || !a.Trunk.W1.AllClose(b.Trunk.W1, 0) {
		t.Fatal("same seed must give identical models")
	}
	c := tinyModel(10)
	if a.Emb.Table.AllClose(c.Emb.Table, 0) {
		t.Fatal("different seeds must differ")
	}
}

func TestPoolLookupMeansRows(t *testing.T) {
	m := tinyModel(1)
	pooled := m.Emb.PoolLookup([][]int64{{2, 4}})
	want := make([]float32, m.Emb.Dim())
	for d := range want {
		want[d] = (m.Emb.Table.At(2, d) + m.Emb.Table.At(4, d)) / 2
	}
	for d, v := range pooled.Row(0) {
		if math.Abs(float64(v-want[d])) > 1e-6 {
			t.Fatalf("pooled[%d] = %v, want %v", d, v, want[d])
		}
	}
}

func TestForwardLossIsFiniteAndPositive(t *testing.T) {
	m := tinyModel(2)
	tokens, targets := tinyBatch()
	stats, _, _, err := m.Step(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) || stats.Loss <= 0 {
		t.Fatalf("loss = %v", stats.Loss)
	}
	// Random init: loss should be near log(vocab).
	if stats.Loss > 3*math.Log(7) {
		t.Fatalf("loss %v unreasonably large", stats.Loss)
	}
	if stats.Count != len(targets) || stats.Correct < 0 || stats.Correct > stats.Count {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestForwardValidation(t *testing.T) {
	m := tinyModel(3)
	pooled := tensor.NewDense(2, m.Emb.Dim())
	if _, _, err := m.Trunk.Forward(pooled, []int64{1}); err == nil {
		t.Fatal("expected batch/targets mismatch error")
	}
	bad := tensor.NewDense(1, m.Emb.Dim()+1)
	if _, _, err := m.Trunk.Forward(bad, []int64{1}); err == nil {
		t.Fatal("expected width mismatch error")
	}
	// A target outside [0, vocab) is an error, not an index panic in Forward
	// or, later, in Backward.
	vocab := int64(m.Emb.Vocab())
	for _, target := range []int64{-1, vocab} {
		if _, _, err := m.Trunk.Forward(pooled, []int64{0, target}); err == nil {
			t.Fatalf("expected out-of-range error for target %d", target)
		}
		if _, _, _, err := m.Step([][]int64{{1}, {2}}, []int64{0, target}); err == nil {
			t.Fatalf("Model.Step must surface the out-of-range target %d", target)
		}
	}
	if _, _, err := m.Trunk.Forward(pooled, []int64{0, vocab - 1}); err != nil {
		t.Fatalf("last valid target rejected: %v", err)
	}
}

// Finite-difference check of every trunk gradient and the embedding
// gradient. This is the strongest correctness anchor in the package: if the
// manual backward is right, every strategy built on top inherits correct
// training math.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	m := tinyModel(4)
	tokens, targets := tinyBatch()

	lossAt := func() float64 {
		pooled := m.Emb.PoolLookup(tokens)
		loss, _, err := m.Trunk.Forward(pooled, targets)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	_, embGrad, grads, err := m.Step(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	embDense := embGrad.ToDense()

	const eps = 1e-3
	check := func(name string, param *tensor.Dense, analytic *tensor.Dense, idx int) {
		t.Helper()
		orig := param.Data()[idx]
		param.Data()[idx] = orig + eps
		up := lossAt()
		param.Data()[idx] = orig - eps
		down := lossAt()
		param.Data()[idx] = orig
		numeric := (up - down) / (2 * eps)
		got := float64(analytic.Data()[idx])
		if math.Abs(numeric-got) > 5e-3*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, got, numeric)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		check("W1", m.Trunk.W1, grads.W1, rng.Intn(m.Trunk.W1.Len()))
		check("W2", m.Trunk.W2, grads.W2, rng.Intn(m.Trunk.W2.Len()))
		check("B1", m.Trunk.B1, grads.B1, rng.Intn(m.Trunk.B1.Len()))
		check("B2", m.Trunk.B2, grads.B2, rng.Intn(m.Trunk.B2.Len()))
		check("Emb", m.Emb.Table, embDense, rng.Intn(m.Emb.Table.Len()))
	}
}

func TestPoolBackwardIsUncoalescedPerToken(t *testing.T) {
	m := tinyModel(5)
	tokens := [][]int64{{3, 3, 1}}
	gradPooled := tensor.Full(0.3, 1, m.Emb.Dim())
	g := m.Emb.PoolBackward(tokens, gradPooled)
	if g.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (one per token incl. duplicate)", g.NNZ())
	}
	if g.IsCoalesced() {
		t.Fatal("raw gradient must be uncoalesced")
	}
	// Each row carries grad/len(window).
	for i := 0; i < g.NNZ(); i++ {
		for _, v := range g.Row(i) {
			if math.Abs(float64(v)-0.1) > 1e-6 {
				t.Fatalf("row %d value %v, want 0.1", i, v)
			}
		}
	}
}

func TestStepGradientOnlyTouchesBatchRows(t *testing.T) {
	m := tinyModel(6)
	tokens, targets := tinyBatch()
	_, embGrad, _, err := m.Step(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	touched := tensor.ToSet(embGrad.Indices)
	for _, w := range tokens {
		for _, tok := range w {
			if _, ok := touched[tok]; !ok {
				t.Fatalf("token %d missing from gradient", tok)
			}
		}
	}
	dense := embGrad.ToDense()
	for r := 0; r < m.Emb.Vocab(); r++ {
		if _, ok := touched[int64(r)]; ok {
			continue
		}
		for _, v := range dense.Row(r) {
			if v != 0 {
				t.Fatalf("untouched row %d has gradient", r)
			}
		}
	}
}

func TestLossDecreasesUnderSGD(t *testing.T) {
	// Smoke test that the gradients actually descend: repeated steps on one
	// fixed batch must reduce the loss substantially.
	m := tinyModel(7)
	tokens, targets := tinyBatch()
	firstStats, _, _, err := m.Step(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	first := firstStats.Loss
	var last float64
	for i := 0; i < 60; i++ {
		stats, embGrad, grads, err := m.Step(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		last = stats.Loss
		const lr = 0.5
		for _, p := range m.Trunk.Params() {
			var g *tensor.Dense
			switch p.Name {
			case "w1":
				g = grads.W1
			case "b1":
				g = grads.B1
			case "w2":
				g = grads.W2
			case "b2":
				g = grads.B2
			}
			if err := p.Tensor.AXPY(-lr, g); err != nil {
				t.Fatal(err)
			}
		}
		embGrad.AddToDense(m.Emb.Table, -lr)
	}
	if last > first/2 {
		t.Fatalf("loss did not descend: %v -> %v", first, last)
	}
}

func TestPerplexity(t *testing.T) {
	if Perplexity(0) != 1 {
		t.Fatal("PPL of zero loss must be 1")
	}
	if math.Abs(Perplexity(math.Log(40))-40) > 1e-9 {
		t.Fatalf("PPL = %v", Perplexity(math.Log(40)))
	}
}

func TestTrunkParamsStableOrder(t *testing.T) {
	m := tinyModel(8)
	names := []string{"w1", "b1", "w2", "b2"}
	for i, p := range m.Trunk.Params() {
		if p.Name != names[i] {
			t.Fatalf("param %d = %s, want %s", i, p.Name, names[i])
		}
	}
	_, _, grads, _ := m.Step(tinyBatch())
	for i, g := range grads.Dense() {
		if g.Name != names[i] {
			t.Fatalf("grad %d = %s, want %s", i, g.Name, names[i])
		}
	}
}

// Infer must return exactly the probabilities Forward computes — serving
// correctness rests on this identity.
func TestInferMatchesForwardProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trunk := NewTrunk(rng, 6, 5, 12)
	pooled := tensor.RandDense(rng, 1, 4, 6)
	targets := []int64{3, 0, 11, 7}

	_, cache, err := trunk.Forward(pooled.Clone(), targets)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := trunk.Infer(pooled.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !probs.AllClose(cache.probs, 0) {
		t.Fatalf("Infer diverged from Forward by %v", probs.MaxAbsDiff(cache.probs))
	}
	// Rows are distributions.
	for i := 0; i < probs.Dim(0); i++ {
		var sum float64
		for _, p := range probs.Row(i) {
			if p < 0 {
				t.Fatal("negative probability")
			}
			sum += float64(p)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	// Shape validation still fires.
	if _, err := trunk.Infer(tensor.NewDense(2, 3)); err == nil {
		t.Fatal("expected width mismatch error")
	}
}
