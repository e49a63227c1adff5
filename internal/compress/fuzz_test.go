package compress

import (
	"testing"
)

// FuzzDecodeShard feeds DecodeShard bytes and shapes it did not write. The
// seed corpus in testdata/fuzz/FuzzDecodeShard holds the inputs of
// TestSparseDecodeCorruptionSafe: a valid encode of each codec, truncations
// of it, and hostileDualQuantRow under negative shapes. Decoding must never
// panic, and a nil error must mean exactly rows ids and rows*dim values.
//
// Run it with: go test ./internal/compress -run '^$' -fuzz FuzzDecodeShard -fuzztime 20s
func FuzzDecodeShard(f *testing.F) {
	codecs := map[bool]SparseCodec{
		false: DeltaRaw{},
		true:  DualQuant{EpsPrior: 1e-4, EpsDelayed: 1e-3},
	}
	f.Fuzz(func(t *testing.T, dualq bool, src []byte, rows, dim int) {
		codec := codecs[dualq]
		idx, vals, err := codec.DecodeShard(src, rows, dim, nil, nil)
		if err == nil && (len(idx) != rows || len(vals) != rows*dim) {
			t.Fatalf("%s: rows %d x dim %d decoded to %d ids, %d values without error",
				codec.Name(), rows, dim, len(idx), len(vals))
		}
	})
}
