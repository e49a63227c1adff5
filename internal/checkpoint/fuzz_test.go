package checkpoint

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"math"
	"testing"

	"embrace/internal/tensor"
)

// FuzzLoad feeds Load bytes it did not write. The seed corpus in
// testdata/fuzz/FuzzLoad holds a valid checkpoint, truncations and a bit
// flip of it, and intact envelopes around hostile parameter shapes (see
// hostileShape). Load must never panic; a checkpoint it accepts must re-Save
// to bytes that Load back equal, and must column-shard every 2-D parameter
// for worlds of 1, 2 and 3 shards.
//
// Run it with: go test ./internal/checkpoint -run '^$' -fuzz FuzzLoad -fuzztime 20s
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, c); err != nil {
			t.Fatalf("re-save of a loaded checkpoint: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reload of a re-saved checkpoint: %v", err)
		}
		if !sameCheckpoint(c, again) {
			t.Fatal("checkpoint changed across Save and Load")
		}
		for name, p := range c.Params {
			if p.Dims() != 2 {
				continue
			}
			for n := 1; n <= 3; n++ {
				for r := 0; r < n; r++ {
					if _, err := c.ColumnShard(name, n, r); err != nil {
						t.Fatalf("ColumnShard(%q, %d, %d): %v", name, n, r, err)
					}
				}
			}
		}
	})
}

// TestLoadRejectsHostileShapes covers the shapes a sealed, checksum-valid
// file can still lie about: an element count that overflows int and wraps
// to the empty data it carries, and an empty tensor whose row count alone
// would keep ColumnShard looping.
func TestLoadRejectsHostileShapes(t *testing.T) {
	for _, shape := range [][]int{{1 << 32, 1 << 32}, {math.MaxInt >> 1, 0}} {
		if _, err := Load(bytes.NewReader(hostileShape(t, shape))); err == nil {
			t.Errorf("shape %v loaded", shape)
		}
	}
}

// hostileDense gob-encodes as a tensor.Dense of any shape with no data,
// bypassing the constructors that would refuse it.
type hostileDense struct{ shape []int }

func (h *hostileDense) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Shape []int
		Data  []float32
	}{Shape: h.shape})
	return buf.Bytes(), err
}

// hostileShape returns an intact, checksummed checkpoint file whose one
// parameter "emb" claims shape and carries no data.
func hostileShape(t testing.TB, shape []int) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct {
		Step   int
		Params map[string]*hostileDense
	}{Step: 1, Params: map[string]*hostileDense{"emb": {shape: shape}}}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(header{Magic: magic, Version: version}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(sealed{Body: body.Bytes(), CRC: crc32.ChecksumIEEE(body.Bytes())}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sameCheckpoint compares two snapshots to the float bit, so NaN weights
// compare equal to themselves.
func sameCheckpoint(a, b *Checkpoint) bool {
	if a.Step != b.Step || len(a.Params) != len(b.Params) || len(a.Optim) != len(b.Optim) {
		return false
	}
	for name, p := range a.Params {
		if !sameDense(p, b.Params[name]) {
			return false
		}
	}
	for name, s := range a.Optim {
		o, ok := b.Optim[name]
		if !ok || s.Kind != o.Kind || s.Step != o.Step ||
			!sameDense(s.Accum, o.Accum) || !sameDense(s.M, o.M) || !sameDense(s.V, o.V) {
			return false
		}
	}
	return true
}

func sameDense(a, b *tensor.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Shape()) != len(b.Shape()) || a.Len() != b.Len() {
		return false
	}
	for i, d := range a.Shape() {
		if b.Shape()[i] != d {
			return false
		}
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
