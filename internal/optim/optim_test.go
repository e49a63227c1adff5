package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"embrace/internal/tensor"
)

func randSparse(rng *rand.Rand, rows, dim, nnz int) *tensor.Sparse {
	idx := make([]int64, nnz)
	vals := make([]float32, nnz*dim)
	for i := range idx {
		idx[i] = int64(rng.Intn(rows))
	}
	for i := range vals {
		vals[i] = rng.Float32()*2 - 1
	}
	s, _ := tensor.NewSparse(rows, dim, idx, vals)
	return s
}

func TestSGDDense(t *testing.T) {
	p, _ := tensor.FromSlice([]float32{1, 2, 3}, 3)
	g, _ := tensor.FromSlice([]float32{1, 1, 1}, 3)
	o := NewSGD(p, 0.1)
	if err := o.StepDense(g); err != nil {
		t.Fatal(err)
	}
	want := []float32{0.9, 1.9, 2.9}
	for i, v := range p.Data() {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Fatalf("p[%d] = %v, want %v", i, v, want[i])
		}
	}
	bad := tensor.NewDense(4)
	if err := o.StepDense(bad); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSGDSparseEqualsDense(t *testing.T) {
	// A sparse update must equal the dense update of the scattered gradient.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, dim := 10, 3
		pd := tensor.RandDense(rng, 1, rows, dim)
		ps := pd.Clone()
		g := randSparse(rng, rows, dim, 1+rng.Intn(15))
		if err := NewSGD(pd, 0.05).StepDense(g.ToDense()); err != nil {
			return false
		}
		if err := NewSGD(ps, 0.05).StepSparse(g); err != nil {
			return false
		}
		return pd.AllClose(ps, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdagradAccumulates(t *testing.T) {
	p := tensor.Full(1, 2)
	o := NewAdagrad(p, 0.1, 1e-10)
	g, _ := tensor.FromSlice([]float32{1, 0}, 2)
	if err := o.StepDense(g); err != nil {
		t.Fatal(err)
	}
	// First step with g=1: p -= 0.1*1/sqrt(1) = 0.1.
	if math.Abs(float64(p.Data()[0])-0.9) > 1e-5 {
		t.Fatalf("p[0] = %v", p.Data()[0])
	}
	if p.Data()[1] != 1 {
		t.Fatal("zero gradient must not move the parameter")
	}
	if err := o.StepDense(g); err != nil {
		t.Fatal(err)
	}
	// Second step: accum=2, update 0.1/sqrt(2) ≈ 0.0707.
	if math.Abs(float64(p.Data()[0])-(0.9-0.1/math.Sqrt2)) > 1e-5 {
		t.Fatalf("p[0] after 2 steps = %v", p.Data()[0])
	}
}

func TestAdagradSparseEqualsDenseOnTouchedRows(t *testing.T) {
	// Adagrad is element-wise, so sparse(rows) == dense(scattered) as long
	// as untouched rows have zero gradient (which scattering guarantees).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, dim := 8, 2
		pd := tensor.RandDense(rng, 1, rows, dim)
		ps := pd.Clone()
		od := NewAdagrad(pd, 0.1, 1e-10)
		os := NewAdagrad(ps, 0.1, 1e-10)
		for k := 0; k < 4; k++ {
			g := randSparse(rng, rows, dim, 1+rng.Intn(10))
			if err := od.StepDense(g.ToDense()); err != nil {
				return false
			}
			if err := os.StepSparse(g); err != nil {
				return false
			}
		}
		return pd.AllClose(ps, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamDenseMatchesReference(t *testing.T) {
	// One Adam step from zero state with g: m=(1-β1)g, v=(1-β2)g².
	// update = lr * sqrt(1-β2)/(1-β1) * m / (sqrt(v)+eps)
	p := tensor.Full(0, 1)
	o := NewAdam(p, 0.001, 0.9, 0.999, 1e-8)
	g, _ := tensor.FromSlice([]float32{2}, 1)
	if err := o.StepDense(g); err != nil {
		t.Fatal(err)
	}
	m := 0.1 * 2.0
	v := 0.001 * 4.0
	lr := 0.001 * math.Sqrt(1-0.999) / (1 - 0.9)
	want := -lr * m / (math.Sqrt(v) + 1e-8)
	if math.Abs(float64(p.Data()[0])-want) > 1e-7 {
		t.Fatalf("p = %v, want %v", p.Data()[0], want)
	}
	if o.Step() != 1 {
		t.Fatalf("step = %d", o.Step())
	}
}

func TestAdamSparseLazyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := tensor.RandDense(rng, 1, 6, 2)
	before := p.Clone()
	o := NewAdamDefault(p, 0.01)
	g, _ := tensor.NewSparse(6, 2, []int64{2}, []float32{1, -1})
	if err := o.StepSparse(g); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		changed := !pRowEqual(p, before, r)
		if r == 2 && !changed {
			t.Fatal("touched row must change")
		}
		if r != 2 && changed {
			t.Fatalf("untouched row %d changed", r)
		}
	}
}

func pRowEqual(a, b *tensor.Dense, r int) bool {
	ra, rb := a.Row(r), b.Row(r)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// The §5.7 property: applying a coalesced gradient as disjoint prior and
// delayed parts through StepSparsePartial must be bit-identical to applying
// the whole gradient in a single StepSparse, across many iterations.
func TestModifiedAdamSplitEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, dim := 12, 3
		pWhole := tensor.RandDense(rng, 1, rows, dim)
		pSplit := pWhole.Clone()
		oWhole := NewAdamDefault(pWhole, 0.01)
		oSplit := NewAdamDefault(pSplit, 0.01)
		for it := 0; it < 6; it++ {
			g := randSparse(rng, rows, dim, 1+rng.Intn(20)).Coalesce()
			gp, gd := splitRows(rng, g)
			if err := oWhole.StepSparse(g); err != nil {
				return false
			}
			if err := oSplit.StepSparsePartial(gp, false); err != nil {
				return false
			}
			if err := oSplit.StepSparsePartial(gd, true); err != nil {
				return false
			}
			if oWhole.Step() != oSplit.Step() {
				return false
			}
		}
		return pWhole.AllClose(pSplit, 0) // bit-identical, not just close
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Without the modification (advancing the step on both parts), the split
// diverges from the whole update — demonstrating why §5.7 is needed.
func TestUnmodifiedSplitDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows, dim := 10, 2
	pWhole := tensor.RandDense(rng, 1, rows, dim)
	pSplit := pWhole.Clone()
	oWhole := NewAdamDefault(pWhole, 0.01)
	oSplit := NewAdamDefault(pSplit, 0.01)
	for it := 0; it < 5; it++ {
		g := randSparse(rng, rows, dim, 12).Coalesce()
		var prior []int64
		for i, ix := range g.Indices {
			if i%2 == 0 {
				prior = append(prior, ix)
			}
		}
		gp, gd := g.Partition(prior)
		if err := oWhole.StepSparse(g); err != nil {
			t.Fatal(err)
		}
		// Naive: both parts advance the step (two optimizer calls).
		if err := oSplit.StepSparse(gp); err != nil {
			t.Fatal(err)
		}
		if err := oSplit.StepSparse(gd); err != nil {
			t.Fatal(err)
		}
	}
	if pWhole.AllClose(pSplit, 1e-9) {
		t.Fatal("naive split should diverge from whole update")
	}
}

func TestAdamShapeValidation(t *testing.T) {
	p := tensor.NewDense(4, 2)
	o := NewAdamDefault(p, 0.01)
	badDense := tensor.NewDense(5)
	if err := o.StepDense(badDense); err == nil {
		t.Fatal("expected dense shape error")
	}
	badSparse, _ := tensor.NewSparse(4, 3, []int64{0}, []float32{1, 2, 3})
	if err := o.StepSparse(badSparse); err == nil {
		t.Fatal("expected sparse shape error")
	}
}

// refAdam and refAdagrad are the optimizers' element-at-a-time updates as
// they stood before the slice loops — state re-derived and indexed per float
// — kept as the oracle the loops must match to the float32 bit.
type refAdam struct {
	p, m, v               []float32
	lr, beta1, beta2, eps float32
	step                  int
}

func newRefAdam(param *tensor.Dense, lr float32) *refAdam {
	n := param.Len()
	return &refAdam{p: param.Data(), m: make([]float32, n), v: make([]float32, n),
		lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

func (o *refAdam) updateElem(i int, g float32, stepLR float32) {
	o.m[i] = o.beta1*o.m[i] + (1-o.beta1)*g
	o.v[i] = o.beta2*o.v[i] + (1-o.beta2)*g*g
	o.p[i] -= stepLR * o.m[i] / (float32(math.Sqrt(float64(o.v[i]))) + o.eps)
}

func (o *refAdam) stepLR(step int) float32 {
	bc1 := 1 - math.Pow(float64(o.beta1), float64(step))
	bc2 := 1 - math.Pow(float64(o.beta2), float64(step))
	return o.lr * float32(math.Sqrt(bc2)/bc1)
}

func (o *refAdam) stepDense(grad *tensor.Dense) {
	o.step++
	lr := o.stepLR(o.step)
	for i, g := range grad.Data() {
		o.updateElem(i, g, lr)
	}
}

func (o *refAdam) stepSparsePartial(c *tensor.Sparse, final bool) {
	step := o.step + 1
	lr := o.stepLR(step)
	for r, ix := range c.Indices {
		base := int(ix) * c.Dim
		for j, g := range c.Row(r) {
			o.updateElem(base+j, g, lr)
		}
	}
	if final {
		o.step = step
	}
}

type refAdagrad struct {
	p, acc  []float32
	lr, eps float32
}

func (o *refAdagrad) updateElem(i int, g float32) {
	o.acc[i] += g * g
	o.p[i] -= o.lr * g / (float32(math.Sqrt(float64(o.acc[i]))) + o.eps)
}

func sameFloat32Bits(t *testing.T, what string, step int, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s, step %d, element %d: loop %v vs per-element reference %v", what, step, i, got[i], want[i])
		}
	}
}

// splitRows partitions a coalesced gradient into random prior and delayed
// parts, as Vertical Sparse Scheduling does.
func splitRows(rng *rand.Rand, g *tensor.Sparse) (prior, delayed *tensor.Sparse) {
	var keep []int64
	for _, ix := range g.Indices {
		if rng.Intn(2) == 0 {
			keep = append(keep, ix) // Indices sorted: keep stays sorted
		}
	}
	return g.Partition(keep)
}

func TestAdamLoopsMatchPerElementReference(t *testing.T) {
	const rows, dim, steps = 40, 7, 50
	rng := rand.New(rand.NewSource(17))

	t.Run("dense", func(t *testing.T) {
		param := tensor.RandDense(rng, 1, rows, dim)
		ref := newRefAdam(param.Clone(), 0.01)
		opt := NewAdamDefault(param, 0.01)
		for s := 0; s < steps; s++ {
			g := tensor.RandDense(rng, 1, rows, dim)
			ref.stepDense(g)
			if err := opt.StepDense(g); err != nil {
				t.Fatal(err)
			}
			sameFloat32Bits(t, "param", s, ref.p, param.Data())
			sameFloat32Bits(t, "m", s, ref.m, opt.m.Data())
			sameFloat32Bits(t, "v", s, ref.v, opt.v.Data())
		}
	})
	t.Run("sparse", func(t *testing.T) {
		param := tensor.RandDense(rng, 1, rows, dim)
		ref := newRefAdam(param.Clone(), 0.01)
		opt := NewAdamDefault(param, 0.01)
		for s := 0; s < steps; s++ {
			g := randSparse(rng, rows, dim, 1+rng.Intn(30)) // uncoalesced: StepSparse coalesces
			ref.stepSparsePartial(g.Coalesce(), true)
			if err := opt.StepSparse(g); err != nil {
				t.Fatal(err)
			}
			sameFloat32Bits(t, "param", s, ref.p, param.Data())
		}
	})
	t.Run("split", func(t *testing.T) {
		param := tensor.RandDense(rng, 1, rows, dim)
		ref := newRefAdam(param.Clone(), 0.01)
		opt := NewAdamDefault(param, 0.01)
		for s := 0; s < steps; s++ {
			prior, delayed := splitRows(rng, randSparse(rng, rows, dim, 1+rng.Intn(30)).Coalesce())
			ref.stepSparsePartial(prior, false)
			ref.stepSparsePartial(delayed, true)
			if err := opt.StepSparsePartial(prior, false); err != nil {
				t.Fatal(err)
			}
			if err := opt.StepSparsePartial(delayed, true); err != nil {
				t.Fatal(err)
			}
			sameFloat32Bits(t, "param", s, ref.p, param.Data())
			if opt.Step() != ref.step {
				t.Fatalf("step %d: counter %d vs reference %d", s, opt.Step(), ref.step)
			}
		}
	})
}

// tile splits n elements into `parts` nearly equal ranges, the ring chunk
// layout: with more parts than elements some ranges are empty.
func tile(n, parts int) [][2]int {
	out := make([][2]int, parts)
	lo := 0
	for i := range out {
		hi := lo + n/parts
		if i < n%parts {
			hi++
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// Range-bound optimizers tiling a parameter — one per ring chunk, as a
// ring-sharded update runs them — must leave it bit-identical to the
// per-element reference over the whole parameter, with each Adam's moments
// sized to its range and equal to the reference's over it.
func TestAdamRangeMatchesPerElementReference(t *testing.T) {
	const rows, dim, steps = 7, 5, 20
	for _, parts := range []int{1, 2, 3, 4, 8, 2 * rows * dim} {
		rng := rand.New(rand.NewSource(int64(23 + parts)))
		param := tensor.RandDense(rng, 1, rows, dim)
		ref := newRefAdam(param.Clone(), 0.01)
		sgdParam := param.Clone()
		sgdRef := param.Clone()
		var adams []*Adam
		var sgds []*SGD
		for _, r := range tile(rows*dim, parts) {
			adams = append(adams, NewAdamRange(param, r[0], r[1], 0.01))
			sgds = append(sgds, NewSGDRange(sgdParam, r[0], r[1], 0.05))
		}
		for s := 0; s < steps; s++ {
			g := tensor.RandDense(rng, 1, rows, dim)
			ref.stepDense(g)
			if err := sgdRef.AXPY(-0.05, g); err != nil {
				t.Fatal(err)
			}
			for i := range adams {
				if err := adams[i].StepDense(g); err != nil {
					t.Fatal(err)
				}
				if err := sgds[i].StepDense(g); err != nil {
					t.Fatal(err)
				}
			}
			sameFloat32Bits(t, "param", s, ref.p, param.Data())
			sameFloat32Bits(t, "sgd param", s, sgdRef.Data(), sgdParam.Data())
			for _, o := range adams {
				if o.m.Len() != o.hi-o.lo {
					t.Fatalf("parts %d: moments of range [%d, %d) hold %d elements", parts, o.lo, o.hi, o.m.Len())
				}
				sameFloat32Bits(t, "m", s, ref.m[o.lo:o.hi], o.m.Data())
				sameFloat32Bits(t, "v", s, ref.v[o.lo:o.hi], o.v.Data())
			}
		}
	}
	part := NewAdamRange(tensor.NewDense(4, 2), 2, 6, 0.01)
	g, _ := tensor.NewSparse(4, 2, []int64{0}, []float32{1, 2})
	if err := part.StepSparse(g); err == nil {
		t.Fatal("sparse step on a range-bound Adam must fail")
	}
}

func TestAdagradLoopsMatchPerElementReference(t *testing.T) {
	const rows, dim, steps = 40, 7, 50
	rng := rand.New(rand.NewSource(19))
	param := tensor.RandDense(rng, 1, rows, dim)
	ref := &refAdagrad{p: param.Clone().Data(), acc: make([]float32, rows*dim), lr: 0.1, eps: 1e-10}
	opt := NewAdagrad(param, 0.1, 1e-10)
	for s := 0; s < steps; s++ {
		// Alternate a dense step and the two halves of a split sparse one.
		if s%2 == 0 {
			g := tensor.RandDense(rng, 1, rows, dim)
			for i, gi := range g.Data() {
				ref.updateElem(i, gi)
			}
			if err := opt.StepDense(g); err != nil {
				t.Fatal(err)
			}
		} else {
			prior, delayed := splitRows(rng, randSparse(rng, rows, dim, 1+rng.Intn(30)).Coalesce())
			for _, part := range []*tensor.Sparse{prior, delayed} {
				for r, ix := range part.Indices {
					for j, gi := range part.Row(r) {
						ref.updateElem(int(ix)*dim+j, gi)
					}
				}
				if err := opt.StepSparse(part); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameFloat32Bits(t, "param", s, ref.p, param.Data())
		sameFloat32Bits(t, "accum", s, ref.acc, opt.accum.Data())
	}
}
