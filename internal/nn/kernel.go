package nn

import "embrace/internal/tensor"

// The two W2 loops of the trunk — hidden·W2 in the forward pass, and the
// fused dLogits·W2ᵀ dot product and g.W2 outer-product update in the backward
// pass — are where a dense step spends its time (hidden × vocab multiply-adds
// per batch row, each way). They are register-blocked: four hidden units per
// pass over the vocabulary axis, so the vector shared by the four (the logits
// row, or the dLogits row) is loaded once instead of four times, the forward
// pass stores each logit once per four units, and the backward pass runs four
// independent accumulator chains instead of one latency-bound chain.
//
// What blocking keeps: every float sum is taken in the order the one-unit
// loops took it. logits[v] still adds its products j ascending, each
// dHidden[j] is still one accumulator summed v ascending, and g.W2[j][v] still
// sums batch rows ascending. No accumulator is ever split, so the results are
// the same bits, not merely close (kernel_test.go holds them to the oracle).
//
// The zero-skip contract. Post-ReLU about half the units of a row are exactly
// zero, and the kernels skip them:
//
//   - Dot-skip: a unit with !(h[j] > 0) never has its dot product computed.
//     The ReLU mask overwrites that result with 0 whatever it was, so this is
//     identical unconditionally (a NaN activation is masked to 0 too, as it
//     always was).
//   - Axpy-skip: a unit with h[j] == 0 (either sign) adds nothing to logits
//     or to g.W2. The test is written h[j] != 0 for "keep", so a NaN
//     activation is kept and poisons what it poisoned before. Skipping is
//     identical whenever the other factor is finite: the products are then
//     all ±0, and x + ±0 == x bit for bit unless x is itself a zero. For
//     g.W2 that case cannot change anything — the accumulator starts at +0,
//     and a float add yields -0 only from (-0) + (-0), so it is never -0 and
//     +0 + ±0 == +0. For logits it can flip the sign of a zero logit (B2 may
//     hold -0), but the only reader is softmax, which takes exp(l - max):
//     ±0 - m is the same float for m != 0, and exp(±0) is 1 either way.
//     When the other factor is not finite, 0 × it is NaN, not ±0. Backward
//     sees that case in the data it is handed — a NaN activation makes its
//     row's dLogits NaN — so it checks each dLogits row as it builds it and
//     keeps the zero units of a non-finite row. The forward pass does not
//     scan W2: it is identical for finite W2, and a model with a non-finite
//     weight has no result worth preserving.

// w2Forward adds one batch row's activations through W2 into its logits:
// logits[v] += h[j]*W2[j][v], j ascending for every v. w2 is
// [len(h) x len(logits)].
//
//embrace:hotpath
func w2Forward(logits, h []float32, w2 *tensor.Dense) {
	var blk [4]int // the non-zero units waiting for a full block
	fill := 0
	for j, hj := range h {
		if hj == 0 {
			continue
		}
		blk[fill] = j
		fill++
		if fill == 4 {
			axpy4(logits, h[blk[0]], h[blk[1]], h[blk[2]], h[blk[3]],
				w2.Row(blk[0]), w2.Row(blk[1]), w2.Row(blk[2]), w2.Row(blk[3]))
			fill = 0
		}
	}
	for _, j := range blk[:fill] {
		axpy1(logits, h[j], w2.Row(j))
	}
}

// w2Backward does one batch row's share of the W2 backward pass: for each
// unit j, gW2[j][v] += h[j]*dLogits[v] and dHidden[j] = Σ_v W2[j][v]*dLogits[v]
// under the ReLU mask, v ascending. gw2 and w2 are [len(h) x len(dLogits)].
// finite says every dLogits element is finite, which is what
// licenses skipping the zero units' axpys (see the contract above).
//
//embrace:hotpath
func w2Backward(gw2 *tensor.Dense, dHidden, h []float32, w2 *tensor.Dense, dLogits []float32, finite bool) {
	var blk [4]int // the live units waiting for a full block
	fill := 0
	for j, hj := range h {
		if !(hj > 0) {
			dHidden[j] = 0
			if hj != 0 || !finite {
				axpy1(gw2.Row(j), hj, dLogits)
			}
			continue
		}
		blk[fill] = j
		fill++
		if fill == 4 {
			j0, j1, j2, j3 := blk[0], blk[1], blk[2], blk[3]
			dHidden[j0], dHidden[j1], dHidden[j2], dHidden[j3] = dotAxpy4(dLogits,
				h[j0], h[j1], h[j2], h[j3],
				gw2.Row(j0), gw2.Row(j1), gw2.Row(j2), gw2.Row(j3),
				w2.Row(j0), w2.Row(j1), w2.Row(j2), w2.Row(j3))
			fill = 0
		}
	}
	for _, j := range blk[:fill] {
		dHidden[j] = dotAxpy1(dLogits, h[j], gw2.Row(j), w2.Row(j))
	}
}

// axpy1 is y[v] += a*x[v].
//
//embrace:hotpath
func axpy1(y []float32, a float32, x []float32) {
	x = x[:len(y)]
	for v := range y {
		y[v] += a * x[v]
	}
}

// axpy4 is four axpy1 calls fused into one pass over y; each y[v] adds its
// four products in argument order.
//
//embrace:hotpath
func axpy4(y []float32, a0, a1, a2, a3 float32, x0, x1, x2, x3 []float32) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for v, l := range y {
		l += a0 * x0[v]
		l += a1 * x1[v]
		l += a2 * x2[v]
		l += a3 * x3[v]
		y[v] = l
	}
}

// dotAxpy1 returns Σ_v w[v]*d[v], v ascending, and adds a*d into g on the way.
//
//embrace:hotpath
func dotAxpy1(d []float32, a float32, g, w []float32) float32 {
	g, w = g[:len(d)], w[:len(d)]
	var acc float32
	for v, dv := range d {
		g[v] += a * dv
		acc += w[v] * dv
	}
	return acc
}

// dotAxpy4 is four dotAxpy1 calls fused into one pass over d: four
// accumulators, each its own chain in v order, sharing each load of d[v].
//
//embrace:hotpath
func dotAxpy4(d []float32, a0, a1, a2, a3 float32, g0, g1, g2, g3, w0, w1, w2, w3 []float32) (acc0, acc1, acc2, acc3 float32) {
	g0, g1, g2, g3 = g0[:len(d)], g1[:len(d)], g2[:len(d)], g3[:len(d)]
	w0, w1, w2, w3 = w0[:len(d)], w1[:len(d)], w2[:len(d)], w3[:len(d)]
	for v, dv := range d {
		g0[v] += a0 * dv
		acc0 += w0[v] * dv
		g1[v] += a1 * dv
		acc1 += w1[v] * dv
		g2[v] += a2 * dv
		acc2 += w2[v] * dv
		g3[v] += a3 * dv
		acc3 += w3[v] * dv
	}
	return acc0, acc1, acc2, acc3
}
