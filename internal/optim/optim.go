// Package optim implements the optimizers the paper trains with: SGD,
// Adagrad and Adam, each with a dense update and a sparse row update for
// embedding gradients.
//
// It also implements the paper's §5.7 Adam modification. Vertical Sparse
// Scheduling applies each embedding gradient in two parts (prior rows before
// the next forward pass, delayed rows later). SGD and Adagrad are fully
// element-wise, so two partial updates equal one whole update; Adam is
// element-wise except its global step counter, which feeds the bias
// correction. StepSparsePartial therefore advances the step only when the
// final (delayed) part is applied, making the split bit-identical to a whole
// update — the property TestModifiedAdamSplitEquivalence verifies.
package optim

import (
	"fmt"
	"math"

	"embrace/internal/tensor"
)

// Optimizer updates one parameter tensor from dense or row-sparse gradients.
// An optimizer instance is bound to a single parameter, carrying any state
// (momenta, accumulators) it needs.
type Optimizer interface {
	// StepDense applies a full dense gradient.
	StepDense(grad *tensor.Dense) error
	// StepSparse applies a row-sparse gradient as one whole update. The
	// gradient is coalesced internally if needed.
	StepSparse(grad *tensor.Sparse) error
}

func checkDense(param, grad *tensor.Dense) error {
	if param.Len() != grad.Len() {
		return fmt.Errorf("optim: grad shape %v != param shape %v", grad.Shape(), param.Shape())
	}
	return nil
}

// checkSparse also rejects an optimizer bound to a range: sparse rows address
// the whole parameter.
func checkSparse(param *tensor.Dense, lo, hi int, grad *tensor.Sparse) error {
	if lo != 0 || hi != param.Len() {
		return fmt.Errorf("optim: sparse step on an optimizer bound to elements [%d, %d) of %v", lo, hi, param.Shape())
	}
	if param.Dims() != 2 || param.Dim(0) != grad.NumRows || param.Dim(1) != grad.Dim {
		return fmt.Errorf("optim: sparse grad [%d x %d] incompatible with param %v",
			grad.NumRows, grad.Dim, param.Shape())
	}
	return nil
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

// SGD is plain stochastic gradient descent: p -= lr * g. It is stateless and
// fully element-wise, so split sparse updates are trivially exact.
type SGD struct {
	param  *tensor.Dense
	lo, hi int // the flat elements of param StepDense updates
	lr     float32
}

// NewSGD binds an SGD optimizer to param.
func NewSGD(param *tensor.Dense, lr float32) *SGD {
	return NewSGDRange(param, 0, param.Len(), lr)
}

// NewSGDRange binds SGD to elements [lo, hi) of param's flat data, the chunk
// one rank owns in a ring-sharded update: StepDense reads and updates only
// that range of the full-size gradient and parameter. Sparse steps need the
// whole parameter.
func NewSGDRange(param *tensor.Dense, lo, hi int, lr float32) *SGD {
	return &SGD{param: param, lo: lo, hi: hi, lr: lr}
}

func (o *SGD) StepDense(grad *tensor.Dense) error {
	if err := checkDense(o.param, grad); err != nil {
		return err
	}
	g := grad.Data()[o.lo:o.hi]
	p := o.param.Data()[o.lo:o.hi][:len(g)]
	a := -o.lr
	for i, gi := range g {
		p[i] += a * gi
	}
	return nil
}

func (o *SGD) StepSparse(grad *tensor.Sparse) error {
	if err := checkSparse(o.param, o.lo, o.hi, grad); err != nil {
		return err
	}
	grad.Coalesce().AddToDense(o.param, -o.lr)
	return nil
}

// ---------------------------------------------------------------------------
// Adagrad
// ---------------------------------------------------------------------------

// Adagrad keeps a per-element sum of squared gradients and scales the
// learning rate by its square root (Duchi et al., 2011). Like SGD it is
// fully element-wise (§5.7).
type Adagrad struct {
	param *tensor.Dense
	accum *tensor.Dense
	lr    float32
	eps   float32
}

// NewAdagrad binds an Adagrad optimizer to param.
func NewAdagrad(param *tensor.Dense, lr, eps float32) *Adagrad {
	return &Adagrad{
		param: param,
		accum: tensor.NewDense(param.Shape()...),
		lr:    lr,
		eps:   eps,
	}
}

// apply updates the len(g) parameters starting at off from their gradients
// g. The state and parameter slices are hoisted and cut to g's length once,
// so the loop body carries no bounds check and no pointer chase.
func (o *Adagrad) apply(off int, g []float32) {
	acc := o.accum.Data()[off:][:len(g)]
	p := o.param.Data()[off:][:len(g)]
	lr, eps := o.lr, o.eps
	for i, gi := range g {
		a := acc[i] + gi*gi
		acc[i] = a
		p[i] -= lr * gi / (float32(math.Sqrt(float64(a))) + eps)
	}
}

func (o *Adagrad) StepDense(grad *tensor.Dense) error {
	if err := checkDense(o.param, grad); err != nil {
		return err
	}
	o.apply(0, grad.Data())
	return nil
}

func (o *Adagrad) StepSparse(grad *tensor.Sparse) error {
	if err := checkSparse(o.param, 0, o.param.Len(), grad); err != nil {
		return err
	}
	c := grad.Coalesce()
	for r, ix := range c.Indices {
		o.apply(int(ix)*c.Dim, c.Row(r))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

// Adam implements Kingma & Ba with lazy sparse row updates: only the rows
// present in a sparse gradient update their momenta, as PyTorch's SparseAdam
// does. The bias correction depends on the global step counter, the one
// non-element-wise piece of state §5.7 discusses.
type Adam struct {
	param  *tensor.Dense
	lo, hi int           // the flat elements of param the moments cover
	m      *tensor.Dense // m[i] and v[i] belong to param element lo+i
	v      *tensor.Dense
	lr     float32
	beta1  float32
	beta2  float32
	eps    float32
	step   int
}

// NewAdam binds an Adam optimizer to param with the usual hyperparameters.
func NewAdam(param *tensor.Dense, lr, beta1, beta2, eps float32) *Adam {
	return newAdam(param, 0, param.Len(), param.Shape(), lr, beta1, beta2, eps)
}

// NewAdamDefault binds Adam with the paper-era defaults
// (lr, β1=0.9, β2=0.999, ε=1e-8).
func NewAdamDefault(param *tensor.Dense, lr float32) *Adam {
	return NewAdam(param, lr, 0.9, 0.999, 1e-8)
}

// NewAdamRange binds default Adam to elements [lo, hi) of param's flat data,
// the chunk one rank owns in a ring-sharded update: the moments hold hi-lo
// elements, and StepDense reads and updates only that range of the full-size
// gradient and parameter, through the same element loop as a whole-parameter
// Adam. Sparse steps need the whole parameter.
func NewAdamRange(param *tensor.Dense, lo, hi int, lr float32) *Adam {
	return newAdam(param, lo, hi, []int{hi - lo}, lr, 0.9, 0.999, 1e-8)
}

// newAdam binds Adam to elements [lo, hi) of param with moments of the given
// shape.
func newAdam(param *tensor.Dense, lo, hi int, moments []int, lr, beta1, beta2, eps float32) *Adam {
	return &Adam{
		param: param,
		lo:    lo,
		hi:    hi,
		m:     tensor.NewDense(moments...),
		v:     tensor.NewDense(moments...),
		lr:    lr,
		beta1: beta1,
		beta2: beta2,
		eps:   eps,
	}
}

// Step returns the number of completed optimization steps.
func (o *Adam) Step() int { return o.step }

// apply updates the len(g) parameters starting at off from their gradients
// g, with the bias-corrected learning rate of the current step. The three
// state and parameter slices are hoisted and cut to g's length once, so the
// loop body carries no bounds check and no pointer chase.
func (o *Adam) apply(off int, g []float32, stepLR float32) {
	m := o.m.Data()[off-o.lo:][:len(g)]
	v := o.v.Data()[off-o.lo:][:len(g)]
	p := o.param.Data()[off:][:len(g)]
	beta1, beta2, eps := o.beta1, o.beta2, o.eps
	for i, gi := range g {
		mi := beta1*m[i] + (1-beta1)*gi
		vi := beta2*v[i] + (1-beta2)*gi*gi
		m[i], v[i] = mi, vi
		p[i] -= stepLR * mi / (float32(math.Sqrt(float64(vi))) + eps)
	}
}

// stepLR folds the bias corrections of step t into the learning rate.
func (o *Adam) stepLR(step int) float32 {
	bc1 := 1 - math.Pow(float64(o.beta1), float64(step))
	bc2 := 1 - math.Pow(float64(o.beta2), float64(step))
	return o.lr * float32(math.Sqrt(bc2)/bc1)
}

func (o *Adam) StepDense(grad *tensor.Dense) error {
	if err := checkDense(o.param, grad); err != nil {
		return err
	}
	o.step++
	o.apply(o.lo, grad.Data()[o.lo:o.hi], o.stepLR(o.step))
	return nil
}

func (o *Adam) StepSparse(grad *tensor.Sparse) error {
	return o.StepSparsePartial(grad, true)
}

// StepSparsePartial applies one part of a split sparse gradient. The parts
// of one logical iteration must cover disjoint rows (Sparse.Partition
// guarantees this); every part uses the same step number for bias
// correction, and only the call with final=true advances the counter — the
// paper's Adam modification (§5.7).
func (o *Adam) StepSparsePartial(grad *tensor.Sparse, final bool) error {
	if err := checkSparse(o.param, o.lo, o.hi, grad); err != nil {
		return err
	}
	step := o.step + 1 // logical step shared by all parts of this iteration
	lr := o.stepLR(step)
	c := grad.Coalesce()
	for r, ix := range c.Indices {
		o.apply(int(ix)*c.Dim, c.Row(r), lr)
	}
	if final {
		o.step = step
	}
	return nil
}

// Compile-time interface checks.
var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adagrad)(nil)
	_ Optimizer = (*Adam)(nil)
)
