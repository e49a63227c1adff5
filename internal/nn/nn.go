// Package nn implements the real-arithmetic neural network used by the
// convergence experiments (Figure 11) and by the real-execution trainer.
//
// The paper trains full-size NLP models on GPUs; here a compact next-token
// prediction model stands in: a word embedding whose pooled vectors feed a
// two-layer MLP with a softmax cross-entropy head. That is deliberately the
// smallest architecture with the structure EmbRace cares about — a large
// sparse embedding in front of a dense trunk — so every communication
// strategy (AllReduce, AllGather, PS, EmbRace's AlltoAll with column-wise
// model parallelism) exercises its real data path, and the modified-Adam
// convergence claim (§5.7) can be tested with actual arithmetic.
//
// The embedding is split from the dense trunk at the pooled-vector boundary:
// the trunk consumes a [batch x embDim] activation and returns its gradient,
// so the same trunk composes with a locally held full embedding (the
// baselines) or with column-partitioned shards assembled by AlltoAll
// (EmbRace).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"embrace/internal/tensor"
)

// Embedding is a dense [vocab x dim] lookup table whose gradients are
// row-sparse, the defining property of the models the paper targets (§2.1).
type Embedding struct {
	Table *tensor.Dense
}

// NewEmbedding creates an embedding with uniform Xavier-style init.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	scale := float32(math.Sqrt(3.0 / float64(dim)))
	return &Embedding{Table: tensor.RandDense(rng, scale, vocab, dim)}
}

// Vocab returns the number of rows.
func (e *Embedding) Vocab() int { return e.Table.Dim(0) }

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.Table.Dim(1) }

// PoolLookup returns the mean of the embedding rows of each token window:
// out[i] = mean_j Table[tokens[i][j]]. Shape [len(tokens) x dim].
func (e *Embedding) PoolLookup(tokens [][]int64) *tensor.Dense {
	dim := e.Dim()
	out := tensor.NewDense(len(tokens), dim)
	for i, window := range tokens {
		dst := out.Row(i)
		if len(window) == 0 {
			continue
		}
		inv := 1 / float32(len(window))
		for _, tok := range window {
			src := e.Table.Row(int(tok))
			for d := 0; d < dim; d++ {
				dst[d] += src[d] * inv
			}
		}
	}
	return out
}

// PoolBackward converts the gradient of the pooled vectors into a row-sparse
// embedding gradient: each token of window i receives gradPooled[i]/|window|.
// The result is deliberately uncoalesced — duplicate tokens yield duplicate
// rows — exactly the raw gradient Algorithm 1 starts from.
func (e *Embedding) PoolBackward(tokens [][]int64, gradPooled *tensor.Dense) *tensor.Sparse {
	return PoolBackwardDims(e.Vocab(), e.Dim(), tokens, gradPooled)
}

// PoolBackwardDims is PoolBackward for a logical [vocab x dim] embedding;
// the gradient depends only on the window structure, not the table values,
// so no table is needed.
func PoolBackwardDims(vocab, dim int, tokens [][]int64, gradPooled *tensor.Dense) *tensor.Sparse {
	dst := &tensor.Sparse{}
	PoolBackwardInto(vocab, dim, tokens, gradPooled, dst)
	return dst
}

// PoolBackwardInto is PoolBackwardDims writing into a reused destination:
// dst's backing arrays grow to their high-water mark once and every later
// call writes into them, so the steady-state gradient build allocates
// nothing. Row order and arithmetic are identical to PoolBackwardDims.
//
//embrace:hotpath
func PoolBackwardInto(vocab, dim int, tokens [][]int64, gradPooled *tensor.Dense, dst *tensor.Sparse) {
	dst.Reset()
	dst.NumRows, dst.Dim = vocab, dim
	rows := 0
	for _, window := range tokens {
		rows += len(window)
	}
	sizeRows(dst, rows, dim)
	r := 0
	for i, window := range tokens {
		if len(window) == 0 {
			continue
		}
		inv := 1 / float32(len(window))
		g := gradPooled.Row(i)[:dim]
		for _, tok := range window {
			if tok < 0 || tok >= int64(vocab) {
				// Tokens are validated upstream by the data generator; an
				// invalid index here is a programming error, not input error.
				panic(fmt.Sprintf("nn: PoolBackward: token %d out of range [0,%d)", tok, vocab))
			}
			dst.Indices[r] = tok
			row := dst.Vals[r*dim : (r+1)*dim]
			for d, gd := range g {
				row[d] = gd * inv
			}
			r++
		}
	}
}

// sizeRows sets dst's length to rows rows of width dim, growing its backing
// arrays when a call outgrows them — the cold growth path.
func sizeRows(dst *tensor.Sparse, rows, dim int) {
	if cap(dst.Indices) < rows {
		dst.Indices = make([]int64, rows)
	}
	if cap(dst.Vals) < rows*dim {
		dst.Vals = make([]float32, rows*dim)
	}
	dst.Indices, dst.Vals = dst.Indices[:rows], dst.Vals[:rows*dim]
}

// Trunk is the dense part of the model: pooled -> Linear -> ReLU -> Linear
// -> softmax cross-entropy over the vocabulary.
type Trunk struct {
	W1 *tensor.Dense // [embDim x hidden]
	B1 *tensor.Dense // [hidden]
	W2 *tensor.Dense // [hidden x vocab]
	B2 *tensor.Dense // [vocab]
}

// NewTrunk creates a trunk with Xavier-style uniform init.
func NewTrunk(rng *rand.Rand, embDim, hidden, vocab int) *Trunk {
	s1 := float32(math.Sqrt(6.0 / float64(embDim+hidden)))
	s2 := float32(math.Sqrt(6.0 / float64(hidden+vocab)))
	return &Trunk{
		W1: tensor.RandDense(rng, s1, embDim, hidden),
		B1: tensor.NewDense(hidden),
		W2: tensor.RandDense(rng, s2, hidden, vocab),
		B2: tensor.NewDense(vocab),
	}
}

// Params returns the trunk's parameter tensors in a stable order, keyed for
// the optimizer and the dense gradient exchange.
func (t *Trunk) Params() []NamedParam {
	return []NamedParam{
		{"w1", t.W1}, {"b1", t.B1}, {"w2", t.W2}, {"b2", t.B2},
	}
}

// NamedParam pairs a parameter tensor with a stable name.
type NamedParam struct {
	Name   string
	Tensor *tensor.Dense
}

// TrunkGrads holds the dense gradients of one backward pass, plus the
// gradient flowing back into the pooled embedding activations.
type TrunkGrads struct {
	W1, B1, W2, B2 *tensor.Dense
	Pooled         *tensor.Dense
}

// Dense returns the trunk gradients in the same stable order as
// Trunk.Params.
func (g *TrunkGrads) Dense() []NamedParam {
	return []NamedParam{
		{"w1", g.W1}, {"b1", g.B1}, {"w2", g.W2}, {"b2", g.B2},
	}
}

// forwardCache keeps the activations Backward needs.
type forwardCache struct {
	pooled  *tensor.Dense
	hidden  *tensor.Dense // post-ReLU
	probs   *tensor.Dense // softmax output
	targets []int64
}

// Correct returns the number of batch rows whose most probable token equals
// the target — the top-1 next-token accuracy used as the translation-score
// stand-in in the Figure-11(b) convergence experiment.
func (c *forwardCache) Correct() int {
	correct := 0
	for i, want := range c.targets {
		row := c.probs.Row(i)
		best := 0
		for v := 1; v < len(row); v++ {
			if row[v] > row[best] {
				best = v
			}
		}
		if int64(best) == want {
			correct++
		}
	}
	return correct
}

// infer runs the trunk's forward arithmetic: pooled -> hidden (post-ReLU)
// -> softmax probabilities. It is the single implementation behind both
// Forward (training, which also needs hidden for Backward) and Infer
// (serving), so a served prediction is bit-identical to what the training
// path would compute from the same activations by construction.
func (t *Trunk) infer(pooled *tensor.Dense) (hidden, probs *tensor.Dense, err error) {
	batch := pooled.Dim(0)
	embDim, hiddenDim := t.W1.Dim(0), t.W1.Dim(1)
	vocab := t.W2.Dim(1)
	if pooled.Dim(1) != embDim {
		return nil, nil, fmt.Errorf("nn: pooled width %d != embDim %d", pooled.Dim(1), embDim)
	}

	// The first layer runs row-major over contiguous W1 rows: element (i, j)
	// accumulates B1[j] then x[k]*W1[k][j] for k ascending.
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

	probs = tensor.NewDense(batch, vocab)
	t.head(hidden, probs)
	return hidden, probs, nil
}

// head is the second layer: probs[i] = softmax(B2 + hidden[i]·W2). The
// matmul is w2Forward (kernel.go), which adds each logit's products j
// ascending, as the one-unit-per-pass loop it replaced did.
func (t *Trunk) head(hidden, probs *tensor.Dense) {
	b2 := t.B2.Data()
	for i := 0; i < hidden.Dim(0); i++ {
		logits := probs.Row(i)
		copy(logits, b2)
		w2Forward(logits, hidden.Row(i), t.W2)
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
}

// Infer returns the softmax probability distribution for each pooled row,
// shape [batch x vocab] — the inference entry point, with no targets and no
// gradient bookkeeping.
func (t *Trunk) Infer(pooled *tensor.Dense) (*tensor.Dense, error) {
	_, probs, err := t.infer(pooled)
	return probs, err
}

// Forward computes mean cross-entropy loss of the batch. pooled has shape
// [batch x embDim], targets one label per row.
func (t *Trunk) Forward(pooled *tensor.Dense, targets []int64) (float64, *forwardCache, error) {
	batch := pooled.Dim(0)
	if batch != len(targets) {
		return 0, nil, fmt.Errorf("nn: %d pooled rows vs %d targets", batch, len(targets))
	}
	vocab := t.W2.Dim(1)
	for i, target := range targets {
		if target < 0 || target >= int64(vocab) {
			return 0, nil, fmt.Errorf("nn: target %d of row %d out of range [0,%d)", target, i, vocab)
		}
	}
	hidden, probs, err := t.infer(pooled)
	if err != nil {
		return 0, nil, err
	}
	var loss float64
	for i := 0; i < batch; i++ {
		p := float64(probs.Row(i)[targets[i]])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	loss /= float64(batch)
	return loss, &forwardCache{pooled: pooled, hidden: hidden, probs: probs, targets: targets}, nil
}

// Backward computes all trunk gradients and the pooled-activation gradient
// for the cached forward pass. Gradients are means over the batch, matching
// the loss definition.
func (t *Trunk) Backward(c *forwardCache) *TrunkGrads {
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
		// dLogits = (probs - onehot(target)) / batch. finite records whether
		// every element is: x-x is 0 for a finite x and NaN otherwise.
		copy(dLogits, c.probs.Row(i))
		dLogits[c.targets[i]] -= 1
		finite := true
		for v, d := range dLogits {
			d *= inv
			dLogits[v] = d
			if d-d != 0 {
				finite = false
			}
		}
		// W2 grads and dHidden.
		w2Backward(g.W2, dHidden, c.hidden.Row(i), t.W2, dLogits, finite)
		b2 := g.B2.Data()
		for v := 0; v < vocab; v++ {
			b2[v] += dLogits[v]
		}
		// W1, B1 grads and dPooled.
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

// Model bundles an embedding with a trunk — the baseline (pure data
// parallel) layout where every worker replicates everything.
type Model struct {
	Emb   *Embedding
	Trunk *Trunk
}

// NewModel builds a model with deterministic initialization: two models
// created with the same seed and sizes are bit-identical, which the
// cross-strategy equivalence tests rely on.
func NewModel(seed int64, vocab, embDim, hidden int) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		Emb:   NewEmbedding(rng, vocab, embDim),
		Trunk: NewTrunk(rng, embDim, hidden, vocab),
	}
}

// StepStats reports the training metrics of one forward pass.
type StepStats struct {
	// Loss is the mean cross-entropy of the batch.
	Loss float64
	// Correct counts top-1 next-token hits; Count is the batch size.
	Correct, Count int
}

// Step runs forward and backward for one batch of token windows and next-
// token targets, returning the batch metrics, the sparse embedding gradient
// and the dense trunk gradients.
func (m *Model) Step(tokens [][]int64, targets []int64) (StepStats, *tensor.Sparse, *TrunkGrads, error) {
	pooled := m.Emb.PoolLookup(tokens)
	loss, cache, err := m.Trunk.Forward(pooled, targets)
	if err != nil {
		return StepStats{}, nil, nil, err
	}
	grads := m.Trunk.Backward(cache)
	embGrad := m.Emb.PoolBackward(tokens, grads.Pooled)
	stats := StepStats{Loss: loss, Correct: cache.Correct(), Count: len(targets)}
	return stats, embGrad, grads, nil
}

// Perplexity converts a mean cross-entropy loss to the PPL metric the
// paper's Figure 11(a) tracks.
func Perplexity(loss float64) float64 { return math.Exp(loss) }
