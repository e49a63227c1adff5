package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"embrace/internal/tensor"
)

// refInfer and refBackward are the trunk's loops as they stood before the
// register-blocked kernels, kept verbatim as the oracle: one hidden unit per
// pass, every product added, nothing skipped. The kernels must match them to
// the float32 bit.
func refInfer(t *Trunk, pooled *tensor.Dense) (hidden, probs *tensor.Dense) {
	batch := pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)

	hidden = tensor.NewDense(batch, hiddenDim)
	b1 := t.B1.Data()
	for i := 0; i < batch; i++ {
		x := pooled.Row(i)
		h := hidden.Row(i)
		copy(h, b1)
		for k := 0; k < embDim; k++ {
			xk := x[k]
			w1row := t.W1.Row(k)
			for j := 0; j < hiddenDim; j++ {
				h[j] += xk * w1row[j]
			}
		}
		for j := 0; j < hiddenDim; j++ {
			if h[j] < 0 { // ReLU
				h[j] = 0
			}
		}
	}
	return hidden, refHead(t, hidden)
}

// refHead is the W2 half of refInfer — hidden -> softmax probabilities — split
// out so a test can feed it activations no first layer would produce.
func refHead(t *Trunk, hidden *tensor.Dense) *tensor.Dense {
	batch, hiddenDim := hidden.Dim(0), hidden.Dim(1)
	vocab := t.W2.Dim(1)
	probs := tensor.NewDense(batch, vocab)
	b2 := t.B2.Data()
	for i := 0; i < batch; i++ {
		h := hidden.Row(i)
		logits := probs.Row(i)
		copy(logits, b2)
		for j := 0; j < hiddenDim; j++ {
			hj := h[j]
			w2row := t.W2.Row(j)
			for v := 0; v < vocab; v++ {
				logits[v] += hj * w2row[v]
			}
		}
		// Numerically stable softmax.
		maxL := logits[0]
		for _, l := range logits[1:] {
			if l > maxL {
				maxL = l
			}
		}
		var sum float64
		for v := range logits {
			ex := math.Exp(float64(logits[v] - maxL))
			sum += ex
			logits[v] = float32(ex)
		}
		inv := float32(1 / sum)
		for v := range logits {
			logits[v] *= inv
		}
	}
	return probs
}

func refBackward(t *Trunk, c *forwardCache) *TrunkGrads {
	batch := c.pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	inv := 1 / float32(batch)

	g := &TrunkGrads{
		W1:     tensor.NewDense(embDim, hiddenDim),
		B1:     tensor.NewDense(hiddenDim),
		W2:     tensor.NewDense(hiddenDim, vocab),
		B2:     tensor.NewDense(vocab),
		Pooled: tensor.NewDense(batch, embDim),
	}
	dHidden := make([]float32, hiddenDim)
	dLogits := make([]float32, vocab)
	for i := 0; i < batch; i++ {
		copy(dLogits, c.probs.Row(i))
		dLogits[c.targets[i]] -= 1
		for v := range dLogits {
			dLogits[v] *= inv
		}
		h := c.hidden.Row(i)
		for j := 0; j < hiddenDim; j++ {
			var acc float32
			w2row := g.W2.Row(j)
			tw2 := t.W2.Row(j)
			for v := 0; v < vocab; v++ {
				w2row[v] += h[j] * dLogits[v]
				acc += tw2[v] * dLogits[v]
			}
			if h[j] > 0 { // ReLU mask
				dHidden[j] = acc
			} else {
				dHidden[j] = 0
			}
		}
		b2 := g.B2.Data()
		for v := 0; v < vocab; v++ {
			b2[v] += dLogits[v]
		}
		x := c.pooled.Row(i)
		dx := g.Pooled.Row(i)
		b1 := g.B1.Data()
		for k := 0; k < embDim; k++ {
			w1row := g.W1.Row(k)
			tw1 := t.W1.Row(k)
			var acc float32
			for j := 0; j < hiddenDim; j++ {
				w1row[j] += x[k] * dHidden[j]
				acc += tw1[j] * dHidden[j]
			}
			dx[k] = acc
		}
		for j := 0; j < hiddenDim; j++ {
			b1[j] += dHidden[j]
		}
	}
	return g
}

// sameBits compares two tensors as bit patterns, so -0 differs from +0 —
// stricter than ==. Any NaN equals any NaN: which operand's payload a NaN×NaN
// product inherits is the instruction selector's choice, not arithmetic.
func sameBits(a, b *tensor.Dense) error {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return fmt.Errorf("length %d vs %d", len(ad), len(bd))
	}
	for i := range ad {
		if ad[i] != ad[i] && bd[i] != bd[i] {
			continue
		}
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return fmt.Errorf("element %d: %v (%#x) vs %v (%#x)", i,
				ad[i], math.Float32bits(ad[i]), bd[i], math.Float32bits(bd[i]))
		}
	}
	return nil
}

func sameGrads(want, got *TrunkGrads) error {
	pairs := []struct {
		name string
		w, g *tensor.Dense
	}{
		{"W1", want.W1, got.W1}, {"B1", want.B1, got.B1},
		{"W2", want.W2, got.W2}, {"B2", want.B2, got.B2},
		{"Pooled", want.Pooled, got.Pooled},
	}
	for _, p := range pairs {
		if err := sameBits(p.w, p.g); err != nil {
			return fmt.Errorf("grad %s: %w", p.name, err)
		}
	}
	return nil
}

func randTargets(rng *rand.Rand, batch, vocab int) []int64 {
	targets := make([]int64, batch)
	for i := range targets {
		targets[i] = int64(rng.Intn(vocab))
	}
	return targets
}

// checkForwardBackward runs the whole trunk — both layers, kernels against
// oracle — on pooled.
func checkForwardBackward(trunk *Trunk, pooled *tensor.Dense, targets []int64) error {
	wantHidden, wantProbs := refInfer(trunk, pooled)
	_, cache, err := trunk.Forward(pooled, targets)
	if err != nil {
		return err
	}
	if err := sameBits(wantHidden, cache.hidden); err != nil {
		return fmt.Errorf("hidden: %w", err)
	}
	if err := sameBits(wantProbs, cache.probs); err != nil {
		return fmt.Errorf("probs: %w", err)
	}
	return sameGrads(refBackward(trunk, cache), trunk.Backward(cache))
}

// checkHead runs only the W2 kernels on hand-made activations.
func checkHead(trunk *Trunk, pooled, hidden *tensor.Dense, targets []int64) error {
	wantProbs := refHead(trunk, hidden)
	probs := tensor.NewDense(hidden.Dim(0), trunk.W2.Dim(1))
	trunk.head(hidden, probs)
	if err := sameBits(wantProbs, probs); err != nil {
		return fmt.Errorf("probs: %w", err)
	}
	cache := &forwardCache{pooled: pooled, hidden: hidden, probs: probs, targets: targets}
	return sameGrads(refBackward(trunk, cache), trunk.Backward(cache))
}

func TestKernelBitIdentityShapes(t *testing.T) {
	const embDim = 6
	for _, hiddenDim := range []int{1, 3, 4, 5, 8, 127, 128} {
		for _, vocab := range []int{1, 7, 4096} {
			for _, batch := range []int{1, 64} {
				rng := rand.New(rand.NewSource(int64(hiddenDim*100000 + vocab*100 + batch)))
				trunk := NewTrunk(rng, embDim, hiddenDim, vocab)
				// Xavier init leaves B1 at zero; give the ReLU something to cut.
				trunk.B1 = tensor.RandDense(rng, 0.2, hiddenDim)
				trunk.B2 = tensor.RandDense(rng, 0.2, vocab)
				pooled := tensor.RandDense(rng, 1, batch, embDim)
				if err := checkForwardBackward(trunk, pooled, randTargets(rng, batch, vocab)); err != nil {
					t.Fatalf("hidden %d vocab %d batch %d: %v", hiddenDim, vocab, batch, err)
				}
			}
		}
	}
}

// The activations the zero-skip contract is about: rows with no live unit,
// with every unit live, exact +0 and -0 among live ones, -0 biases (so a
// logit's zero can change sign when an axpy of zeros is skipped), and a NaN,
// which must poison exactly what it poisoned before.
func TestKernelBitIdentityEdgeActivations(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	const embDim, batch = 5, 6
	for _, hiddenDim := range []int{1, 3, 4, 5, 8, 127, 128} {
		for _, vocab := range []int{1, 7, 300} {
			rng := rand.New(rand.NewSource(int64(hiddenDim*1000 + vocab)))
			trunk := NewTrunk(rng, embDim, hiddenDim, vocab)
			b2 := trunk.B2.Data()
			for v := range b2 {
				switch rng.Intn(3) {
				case 0:
					b2[v] = negZero
				case 1:
					b2[v] = rng.Float32() - 0.5
				}
			}
			pooled := tensor.RandDense(rng, 1, batch, embDim)
			hidden := tensor.NewDense(batch, hiddenDim)
			fill := func(i int, f func(j int) float32) {
				row := hidden.Row(i)
				for j := range row {
					row[j] = f(j)
				}
			}
			fill(0, func(int) float32 { return 0 })                 // every unit dead
			fill(1, func(int) float32 { return rng.Float32() + 1 }) // every unit live
			fill(2, func(int) float32 { return negZero })
			fill(3, func(j int) float32 { // a mix, zeros of both signs between live units
				switch rng.Intn(4) {
				case 0:
					return 0
				case 1:
					return negZero
				}
				return rng.Float32()
			})
			fill(4, func(j int) float32 { // one NaN among zeros and live units
				if j == hiddenDim/2 {
					return nan
				}
				return float32(rng.Intn(2)) * rng.Float32()
			})
			fill(5, func(j int) float32 { return float32(j%5) * 0.25 }) // live runs of four, one dead between
			if err := checkHead(trunk, pooled, hidden, randTargets(rng, batch, vocab)); err != nil {
				t.Fatalf("hidden %d vocab %d: %v", hiddenDim, vocab, err)
			}
		}
	}
}

func TestKernelBitIdentityQuick(t *testing.T) {
	prop := func(seed int64, hSel, vSel, bSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		hiddenDim, vocab, batch := 1+int(hSel)%19, 1+int(vSel)%41, 1+int(bSel)%5
		const embDim = 4
		trunk := NewTrunk(rng, embDim, hiddenDim, vocab)
		trunk.B1 = tensor.RandDense(rng, 0.5, hiddenDim)
		trunk.B2 = tensor.RandDense(rng, 0.5, vocab)
		pooled := tensor.RandDense(rng, 1, batch, embDim)
		if rng.Intn(2) == 0 { // a row whose pre-activations are exactly the bias
			for k := range pooled.Row(0) {
				pooled.Row(0)[k] = 0
			}
		}
		if err := checkForwardBackward(trunk, pooled, randTargets(rng, batch, vocab)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Backward must leave its cache as it found it: the benchmark's probes call
// it repeatedly on one cache.
func TestKernelBackwardNonDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trunk := NewTrunk(rng, 6, 9, 33)
	pooled := tensor.RandDense(rng, 1, 4, 6)
	_, cache, err := trunk.Forward(pooled, randTargets(rng, 4, 33))
	if err != nil {
		t.Fatal(err)
	}
	first := trunk.Backward(cache)
	if err := sameGrads(first, trunk.Backward(cache)); err != nil {
		t.Fatal(err)
	}
}

// The train_dense shape of the benchmark: batch 64, embDim 64, hidden 128,
// vocab 4096. "init" is a freshly initialised trunk, where the ReLU cuts
// about half the units; "live" biases every unit above zero — what the
// kernels cost once training has brought nearly every unit to life, and what
// blocking alone, without the zero-skips, buys.
func benchTrunk(b *testing.B, run func(b *testing.B, trunk *Trunk, cache *forwardCache)) {
	for _, bias := range []struct {
		name string
		b1   float32
	}{{"init", 0}, {"live", 8}} {
		b.Run(bias.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			trunk := NewTrunk(rng, 64, 128, 4096)
			trunk.B1.Fill(bias.b1)
			_, cache, err := trunk.Forward(tensor.RandDense(rng, 1, 64, 64), randTargets(rng, 64, 4096))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, trunk, cache)
			b.ReportMetric(float64(cache.hidden.CountNonZero())/float64(cache.hidden.Len()), "live-share")
		})
	}
}

var benchSink any

func BenchmarkTrunkForward(b *testing.B) {
	benchTrunk(b, func(b *testing.B, trunk *Trunk, cache *forwardCache) {
		for i := 0; i < b.N; i++ {
			_, c, err := trunk.Forward(cache.pooled, cache.targets)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = c
		}
	})
}

func BenchmarkTrunkBackward(b *testing.B) {
	benchTrunk(b, func(b *testing.B, trunk *Trunk, cache *forwardCache) {
		for i := 0; i < b.N; i++ {
			benchSink = trunk.Backward(cache)
		}
	})
}
