package compress

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"embrace/internal/collective"
)

// shardSample is a random sparse shard for the property tests: ragged row
// counts (empties and single rows included), dim down to 1, indices from
// dense small vocabularies up to 2^40-row tables, and values mixing
// gradient-scale floats with zeros, arbitrary bit patterns (denormals and
// NaNs), huge magnitudes and infinities.
type shardSample struct {
	idx  []int64
	vals []float32
	dim  int
}

// Generate implements quick.Generator.
func (shardSample) Generate(r *rand.Rand, _ int) reflect.Value {
	dim := 1 + r.Intn(8)
	rows := r.Intn(33)
	switch r.Intn(8) {
	case 0:
		rows = 0
	case 1:
		rows = 1
	}
	idx := make([]int64, rows)
	vals := make([]float32, rows*dim)
	for i := range idx {
		switch r.Intn(4) {
		case 0:
			idx[i] = int64(r.Intn(64))
		case 1:
			idx[i] = r.Int63n(1 << 20)
		default:
			idx[i] = r.Int63n(1 << 40)
		}
	}
	for i := range vals {
		switch r.Intn(12) {
		case 0:
			vals[i] = float32(math.NaN())
		case 1:
			vals[i] = float32(math.Inf(1))
		case 2:
			vals[i] = float32(math.Inf(-1))
		case 3:
			vals[i] = 0
		case 4:
			vals[i] = math.Float32frombits(r.Uint32())
		case 5:
			vals[i] = (r.Float32()*2 - 1) * 1e30
		default:
			vals[i] = (r.Float32()*2 - 1) * 0.1
		}
	}
	return reflect.ValueOf(shardSample{idx: idx, vals: vals, dim: dim})
}

func mustDualQuant(t *testing.T, prior, delayed float32) DualQuant {
	t.Helper()
	q, err := NewDualQuant(prior, delayed)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Lossless round trip: decoding DeltaRaw's wire bytes reproduces every index
// and every value bit pattern exactly — NaN and Inf included — and appending
// onto non-empty destination slices preserves their prefix (the arena-append
// contract AlltoAllSparseCodec relies on).
func TestDeltaRawRoundTripQuick(t *testing.T) {
	prefixIdx := []int64{7, 9}
	prefixVals := []float32{1.5, -2.5, 3.5}
	f := func(s shardSample) bool {
		wire := DeltaRaw{}.AppendShard(nil, s.idx, s.vals, s.dim, collective.RowsWhole)
		idx, vals, err := DeltaRaw{}.DecodeShard(wire, len(s.idx), s.dim, append([]int64(nil), prefixIdx...), append([]float32(nil), prefixVals...))
		if err != nil {
			return false
		}
		if len(idx) != len(prefixIdx)+len(s.idx) || len(vals) != len(prefixVals)+len(s.vals) {
			return false
		}
		for i, v := range prefixIdx {
			if idx[i] != v {
				return false
			}
		}
		for i, v := range prefixVals {
			if math.Float32bits(vals[i]) != math.Float32bits(v) {
				return false
			}
		}
		for i, v := range s.idx {
			if idx[len(prefixIdx)+i] != v {
				return false
			}
		}
		for i, v := range s.vals {
			if math.Float32bits(vals[len(prefixVals)+i]) != math.Float32bits(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Lossy round trip: indices are exact, every finite value is within the
// declared per-element epsilon of its original, and non-finite values
// round-trip bit-identically through the raw-row escape.
func TestDualQuantRoundTripQuick(t *testing.T) {
	q := mustDualQuant(t, 1e-4, 1e-3)
	for _, class := range []collective.RowClass{collective.RowsWhole, collective.RowsPrior, collective.RowsDelayed} {
		eps := float64(q.Eps(class))
		f := func(s shardSample) bool {
			wire := q.AppendShard(nil, s.idx, s.vals, s.dim, class)
			idx, vals, err := q.DecodeShard(wire, len(s.idx), s.dim, nil, nil)
			if err != nil {
				return false
			}
			if len(idx) != len(s.idx) || len(vals) != len(s.vals) {
				return false
			}
			for i, v := range s.idx {
				if idx[i] != v {
					return false
				}
			}
			for i, v := range s.vals {
				f64 := float64(v)
				if math.IsNaN(f64) || math.IsInf(f64, 0) {
					if math.Float32bits(vals[i]) != math.Float32bits(v) {
						return false
					}
					continue
				}
				diff := math.Abs(f64 - float64(vals[i]))
				// eps plus float32-rounding slack: converting q*step to
				// float32 can add up to half an ulp of the reconstruction.
				if diff > eps*(1+1e-6)+math.Abs(f64)*1e-6 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatalf("class %d: %v", class, err)
		}
	}
}

// The dual levels are real: the same shard encoded with the delayed class
// ships fewer bytes (coarser grid, smaller quantized magnitudes) and shows a
// larger — but still bounded — reconstruction error than the prior class.
func TestDualQuantDualLevel(t *testing.T) {
	q := mustDualQuant(t, 1e-4, 1e-3)
	rng := rand.New(rand.NewSource(11))
	const rows, dim = 64, 8
	idx := make([]int64, rows)
	vals := make([]float32, rows*dim)
	for i := range idx {
		idx[i] = rng.Int63n(10000)
	}
	for i := range vals {
		vals[i] = (rng.Float32()*2 - 1) * 0.05
	}
	prior := q.AppendShard(nil, idx, vals, dim, collective.RowsPrior)
	delayed := q.AppendShard(nil, idx, vals, dim, collective.RowsDelayed)
	if len(delayed) >= len(prior) {
		t.Errorf("delayed class encodes to %d bytes, prior to %d — looser bound should be smaller", len(delayed), len(prior))
	}
	maxErr := func(wire []byte) float64 {
		_, got, err := q.DecodeShard(wire, rows, dim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range vals {
			worst = math.Max(worst, math.Abs(float64(vals[i])-float64(got[i])))
		}
		return worst
	}
	ep, ed := maxErr(prior), maxErr(delayed)
	if ep > float64(q.EpsPrior)*(1+1e-6) {
		t.Errorf("prior-class max error %g exceeds EpsPrior %g", ep, q.EpsPrior)
	}
	if ed > float64(q.EpsDelayed)*(1+1e-6) {
		t.Errorf("delayed-class max error %g exceeds EpsDelayed %g", ed, q.EpsDelayed)
	}
	if ed <= float64(q.EpsPrior) {
		t.Errorf("delayed-class max error %g never left the prior bound %g — same grid?", ed, q.EpsPrior)
	}
}

func TestNewDualQuantValidates(t *testing.T) {
	for _, bad := range [][2]float32{{0, 1e-3}, {-1e-4, 1e-3}, {1e-3, 1e-4}, {float32(math.Inf(1)), float32(math.Inf(1))}} {
		if _, err := NewDualQuant(bad[0], bad[1]); err == nil {
			t.Errorf("NewDualQuant(%g, %g) accepted", bad[0], bad[1])
		}
	}
	if _, err := NewDualQuant(1e-4, 1e-4); err != nil {
		t.Errorf("equal bounds rejected: %v", err)
	}
}

// hostileDualQuantRow is a DualQuant payload of one raw-flagged row: the
// float32 step 1.0, the row key zigzag(5)<<1|1, then four raw bytes.
var hostileDualQuantRow = []byte{0, 0, 0x80, 0x3f, 21, 0, 0, 0, 0}

// Decoding must never panic or over-read: every truncation of a valid
// payload and a sweep of random byte corruptions either errors or returns a
// well-formed shard of exactly the advertised shape.
func TestSparseDecodeCorruptionSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := mustDualQuant(t, 1e-4, 1e-3)
	codecs := []SparseCodec{DeltaRaw{}, q}
	sample := shardSample{}.Generate(rng, 0).Interface().(shardSample)
	for len(sample.idx) < 4 { // ensure a few rows so payloads are non-trivial
		sample = shardSample{}.Generate(rng, 0).Interface().(shardSample)
	}
	rows, dim := len(sample.idx), sample.dim
	for _, codec := range codecs {
		wire := codec.AppendShard(nil, sample.idx, sample.vals, dim, collective.RowsPrior)
		check := func(src []byte, label string) {
			idx, vals, err := codec.DecodeShard(src, rows, dim, nil, nil)
			if err == nil && (len(idx) != rows || len(vals) != rows*dim) {
				t.Fatalf("%s %s: decode returned %d rows, %d values without error", codec.Name(), label, len(idx), len(vals))
			}
		}
		for cut := 0; cut < len(wire); cut++ {
			check(wire[:cut], fmt.Sprintf("truncated@%d", cut))
		}
		// A hostile shape must be rejected, not trusted: DualQuant once
		// sliced src[dim*4:] with dim = -1 behind a raw-flagged row.
		for _, shape := range [][2]int{{rows, -1}, {-1, dim}, {1, -1}} {
			for _, src := range [][]byte{wire, hostileDualQuantRow} {
				if _, _, err := codec.DecodeShard(src, shape[0], shape[1], nil, nil); err == nil {
					t.Errorf("%s: rows %d x dim %d decoded without error", codec.Name(), shape[0], shape[1])
				}
			}
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), wire...)
			for flips := 1 + rng.Intn(4); flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			check(mut, "mutated")
		}
	}
}

// Satellite: hotalloc-clean codecs must also be measurably allocation-free —
// encode+decode round trips over warmed buffers make zero allocations, the
// same steady-state discipline as the exchange they ride.
func TestCodecSteadyStateZeroAllocs(t *testing.T) {
	const rows, dim = 128, 8
	rng := rand.New(rand.NewSource(31))
	idx := make([]int64, rows)
	vals := make([]float32, rows*dim)
	for i := range idx {
		idx[i] = rng.Int63n(100000)
	}
	for i := range vals {
		vals[i] = (rng.Float32()*2 - 1) * 0.1
	}
	vals[3] = float32(math.NaN()) // keep one raw-escape row in play
	q := mustDualQuant(t, 1e-4, 1e-3)
	for _, codec := range []SparseCodec{DeltaRaw{}, q} {
		scratch := codec.AppendShard(nil, idx, vals, dim, collective.RowsPrior)
		ibuf := make([]int64, 0, rows)
		vbuf := make([]float32, 0, rows*dim)
		do := func() {
			wire := codec.AppendShard(scratch[:0], idx, vals, dim, collective.RowsPrior)
			i2, v2, err := codec.DecodeShard(wire, rows, dim, ibuf[:0], vbuf[:0])
			if err != nil || len(i2) != rows || len(v2) != rows*dim {
				panic("bad round trip")
			}
		}
		if n := testing.AllocsPerRun(100, do); n != 0 {
			t.Errorf("%s: steady-state encode+decode allocates %v times per op", codec.Name(), n)
		}
	}
}
