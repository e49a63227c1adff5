// Package compress implements the sparse wire codecs of the embedding
// AlltoAll (DESIGN.md §12). The embedding-gradient exchange is the paper's
// dominant communication cost, and its payloads are index–value streams, not
// dense vectors. Two codecs cover the two regimes:
//
//   - DeltaRaw: lossless. Row ids are sorted-ascending after Coalesce, so
//     delta + zigzag varint encoding collapses the 8-byte indices to ~1
//     byte each (SparCML's index–value stream layout); values ship as raw
//     float32 bit patterns, so training stays bit-identical — NaN and Inf
//     payloads included.
//
//   - DualQuant: lossy, error-bounded. Each value is linearly quantized to
//     round(v/step) with step = 2ε, so every reconstructed element is
//     within ε of the original — the absolute error bound of
//     "Dual-Level Adaptive Lossy Compression". Dual-level: ε is chosen per
//     exchange from the scheduler's prior/delayed row classes — prior rows
//     feed the very next step and get EpsPrior, delayed rows tolerate the
//     looser EpsDelayed. Rows holding non-finite values or magnitudes the
//     quantizer cannot bound fall back to raw float32 bits per row (a flag
//     bit in the row key), so the ε guarantee holds for every finite
//     element and non-finite ones round-trip bit-identically.
//
// Both codecs implement collective.SparseCodec (declared next to the
// exchange so this package can depend on collective, not the reverse) and
// are append-style: encode scratch and decode targets come from the
// Communicator's byte pool and the receive arena, so the compressed hot
// path allocates nothing in steady state.
package compress

import (
	"encoding/binary"
	"math"

	"embrace/internal/collective"
)

// SparseCodec is the sparse-shard wire codec contract. The canonical
// declaration lives in collective (next to AlltoAllSparseCodec); the alias
// keeps this package the home of the implementations.
type SparseCodec = collective.SparseCodec

// zigzag maps signed deltas onto small unsigned varints: 0,-1,1,-2,... ->
// 0,1,2,3,...
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// sparseDecodeError is returned (never panicked) on truncated or corrupt
// payloads, so a byte-flipping fuzzer exercises error paths, not crashes.
type sparseDecodeError string

func (e sparseDecodeError) Error() string { return "compress: " + string(e) }

// ---------------------------------------------------------------------------
// DeltaRaw: lossless delta-varint indices + raw float32 values.
// ---------------------------------------------------------------------------

// DeltaRaw is the lossless sparse codec. Wire layout: one zigzag-varint
// index delta per row (versus the previous row's index, starting from 0),
// then rows*dim raw little-endian float32 bit patterns. Decoding is
// bit-identical to the input for every value, including NaN and ±Inf.
type DeltaRaw struct{}

// Name implements SparseCodec.
func (DeltaRaw) Name() string { return "delta-raw" }

// Lossless implements SparseCodec.
func (DeltaRaw) Lossless() bool { return true }

// AppendShard implements SparseCodec. The row class is irrelevant to a
// lossless codec.
//
//embrace:hotpath
func (DeltaRaw) AppendShard(dst []byte, idx []int64, vals []float32, dim int, _ collective.RowClass) []byte {
	prev := int64(0)
	for _, id := range idx {
		dst = binary.AppendUvarint(dst, zigzag(id-prev))
		prev = id
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// DecodeShard implements SparseCodec.
//
//embrace:hotpath
func (DeltaRaw) DecodeShard(src []byte, rows, dim int, idx []int64, vals []float32) ([]int64, []float32, error) {
	if rows < 0 || dim < 0 {
		return idx, vals, sparseDecodeError("delta-raw: negative shard shape")
	}
	prev := int64(0)
	for r := 0; r < rows; r++ {
		u, n := binary.Uvarint(src)
		if n <= 0 {
			return idx, vals, sparseDecodeError("delta-raw: truncated index stream")
		}
		src = src[n:]
		prev += unzigzag(u)
		idx = append(idx, prev)
	}
	// Compared by division: rows*dim*4 overflows for a hostile dim.
	if n := len(src) / 4; len(src)%4 != 0 || (rows == 0 && n != 0) || (rows > 0 && (n%rows != 0 || n/rows != dim)) {
		return idx, vals, sparseDecodeError("delta-raw: value stream length mismatch")
	}
	for i := 0; i < rows*dim; i++ {
		vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
	}
	return idx, vals, nil
}

// ---------------------------------------------------------------------------
// DualQuant: dual-level error-bounded linear quantization.
// ---------------------------------------------------------------------------

// dqMaxQ bounds the quantized magnitude so float64 arithmetic on q*step is
// exact to well under an ulp; rows that would exceed it escape to raw bits.
const dqMaxQ = int64(1) << 31

// DualQuant is the dual-level lossy sparse codec. Every finite decoded
// element is within eps of its original, where eps is EpsPrior for
// RowsWhole/RowsPrior exchanges and EpsDelayed for RowsDelayed ones; rows
// carrying non-finite values or magnitudes beyond the quantizer's range are
// shipped as raw float32 bits and round-trip bit-identically.
//
// Wire layout: 4 bytes of float32 step size (2ε, so the decoder reconstructs
// with the encoder's exact grid), then per row one varint key
// (zigzag(index delta)<<1 | rawFlag) followed by either dim zigzag-varint
// quantized values or dim raw little-endian float32s. Index deltas must fit
// 63 bits — always true for embedding row ids, which are non-negative.
//
// Construct with NewDualQuant, which validates the bounds.
type DualQuant struct {
	// EpsPrior bounds the per-element error of prior-class (and whole,
	// unsplit) exchanges — rows applied to the very next step's lookup.
	EpsPrior float32
	// EpsDelayed bounds delayed-class exchanges; looser, per the dual-level
	// scheme, because a delayed row's error is smoothed by an extra step of
	// optimizer state before it can influence a lookup.
	EpsDelayed float32
}

// NewDualQuant validates 0 < epsPrior <= epsDelayed (both finite) and
// returns the codec.
func NewDualQuant(epsPrior, epsDelayed float32) (DualQuant, error) {
	if !(epsPrior > 0) || math.IsInf(float64(epsPrior), 0) {
		return DualQuant{}, sparseDecodeError("dualq: EpsPrior must be positive and finite")
	}
	if !(epsDelayed >= epsPrior) || math.IsInf(float64(epsDelayed), 0) {
		return DualQuant{}, sparseDecodeError("dualq: EpsDelayed must be >= EpsPrior and finite")
	}
	return DualQuant{EpsPrior: epsPrior, EpsDelayed: epsDelayed}, nil
}

// Name implements SparseCodec.
func (DualQuant) Name() string { return "dualq" }

// Lossless implements SparseCodec.
func (DualQuant) Lossless() bool { return false }

// Eps returns the error bound the codec applies to the given row class.
func (q DualQuant) Eps(class collective.RowClass) float32 {
	if class == collective.RowsDelayed {
		return q.EpsDelayed
	}
	return q.EpsPrior
}

// AppendShard implements SparseCodec.
//
//embrace:hotpath
func (q DualQuant) AppendShard(dst []byte, idx []int64, vals []float32, dim int, class RowClass) []byte {
	if len(idx) == 0 {
		return dst
	}
	// step = 2ε is a power-of-two multiple of ε, so step/2 == ε exactly and
	// round-to-nearest quantization errs by at most ε per element.
	stepF := 2 * q.Eps(class)
	step := float64(stepF)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(stepF))
	prev := int64(0)
	for r, id := range idx {
		row := vals[r*dim : (r+1)*dim]
		raw := uint64(0)
		for _, v := range row {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) || math.Abs(math.Round(f/step)) > float64(dqMaxQ) {
				raw = 1
				break
			}
		}
		dst = binary.AppendUvarint(dst, zigzag(id-prev)<<1|raw)
		prev = id
		if raw == 1 {
			for _, v := range row {
				dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
			}
			continue
		}
		for _, v := range row {
			dst = binary.AppendUvarint(dst, zigzag(int64(math.Round(float64(v)/step))))
		}
	}
	return dst
}

// DecodeShard implements SparseCodec.
//
//embrace:hotpath
func (q DualQuant) DecodeShard(src []byte, rows, dim int, idx []int64, vals []float32) ([]int64, []float32, error) {
	if rows < 0 || dim < 0 {
		return idx, vals, sparseDecodeError("dualq: negative shard shape")
	}
	if rows == 0 {
		if len(src) != 0 {
			return idx, vals, sparseDecodeError("dualq: trailing bytes after empty shard")
		}
		return idx, vals, nil
	}
	if len(src) < 4 {
		return idx, vals, sparseDecodeError("dualq: truncated step header")
	}
	step := float64(math.Float32frombits(binary.LittleEndian.Uint32(src)))
	src = src[4:]
	if !(step > 0) || math.IsInf(step, 0) {
		return idx, vals, sparseDecodeError("dualq: invalid step size")
	}
	prev := int64(0)
	for r := 0; r < rows; r++ {
		key, n := binary.Uvarint(src)
		if n <= 0 {
			return idx, vals, sparseDecodeError("dualq: truncated row key")
		}
		src = src[n:]
		prev += unzigzag(key >> 1)
		idx = append(idx, prev)
		if key&1 == 1 {
			if len(src)/4 < dim { // not dim*4, which overflows for a hostile dim
				return idx, vals, sparseDecodeError("dualq: truncated raw row")
			}
			for i := 0; i < dim; i++ {
				vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
			}
			src = src[dim*4:]
			continue
		}
		for i := 0; i < dim; i++ {
			u, n := binary.Uvarint(src)
			if n <= 0 {
				return idx, vals, sparseDecodeError("dualq: truncated quantized row")
			}
			src = src[n:]
			vals = append(vals, float32(float64(unzigzag(u))*step))
		}
	}
	if len(src) != 0 {
		return idx, vals, sparseDecodeError("dualq: trailing bytes after shard")
	}
	return idx, vals, nil
}

// Compile-time checks: both codecs satisfy the collective-side contract.
var (
	_ collective.SparseCodec = DeltaRaw{}
	_ collective.SparseCodec = DualQuant{}
)

// RowClass re-exports the collective row classes for callers configuring
// codecs without importing collective.
type RowClass = collective.RowClass
