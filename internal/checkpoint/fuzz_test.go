package checkpoint

import (
	"bytes"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"embrace/internal/tensor"
	"embrace/internal/wire"
)

// Heap bounds of FuzzLoad: loading one file may allocate a constant plus
// fuzzAllocPerByte bytes per input byte. The constant is the wire reader's
// 4 KiB bufio buffer, its first 4 KiB scratch step and Load's fixed values,
// well under 64 KiB. Per input byte: the scratch a body is read into grows
// by doubling, so it holds at most twice the bytes that have arrived, and
// each decoded slice is one more copy of them (3 bytes). A map entry costs
// at least 34 input bytes (a 9-byte name value and a 25-byte dense value of
// one empty dimension) and about 200 bytes of heap (its name and string,
// the Dense and its shape, a map slot and its share of the map's doubling;
// measured at 4.7 bytes per input byte over 20,000 entries), so under 6.
// 3 + 6 is rounded up to 16 for allocator size classes.
const (
	fuzzAllocBase    = 64 << 10
	fuzzAllocPerByte = 16
)

// FuzzLoad feeds Load bytes it did not write. The seed corpus in
// testdata/fuzz/FuzzLoad holds a valid checkpoint, truncations and a bit
// flip of it, intact files around hostile parameter shapes (see
// hostileShape), 2^40 counts in the header, a value and the body length,
// and the format 2 fixture. Load must never panic and its heap may grow by
// at most a constant plus a multiple of the input length; a checkpoint it
// accepts must re-Save to bytes that Load back equal, and must column-shard
// every 2-D parameter for worlds of 1, 2 and 3 shards.
//
// Run it with: go test ./internal/checkpoint -run '^$' -fuzz FuzzLoad -fuzztime 20s
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		limit := uint64(fuzzAllocBase + fuzzAllocPerByte*len(raw))
		if grown := after.TotalAlloc - before.TotalAlloc; grown > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(raw), grown, limit)
		}
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

// TestLoadRejectsHostileShapes covers the shapes an intact, checksum-valid
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

// sealed returns an intact checkpoint file whose body is vals encoded in
// order, with patch applied to the body before it is checksummed.
func sealed(t testing.TB, patch func(body []byte), vals ...any) []byte {
	t.Helper()
	var e wire.Encoder
	for _, v := range vals {
		if err := e.Value(v); err != nil {
			t.Fatal(err)
		}
	}
	if patch != nil {
		patch(e.Buf)
	}
	out := append([]byte(magic), make([]byte, 16)...)
	le.PutUint64(out[len(magic):], version)
	le.PutUint64(out[len(magic)+8:], uint64(len(e.Buf)))
	out = append(out, e.Buf...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(e.Buf))
}

// hostileShape returns an intact, checksummed checkpoint file whose one
// parameter "emb" claims shape (two dims) and carries no data: a [0 0]
// tensor whose dims are rewritten before sealing.
func hostileShape(t testing.TB, shape []int) []byte {
	t.Helper()
	return sealed(t, func(body []byte) {
		// The dense value ends the body: dims, then an empty data count.
		le.PutUint64(body[len(body)-24:], uint64(shape[0]))
		le.PutUint64(body[len(body)-16:], uint64(shape[1]))
	}, []int64{1, 1, 0}, []byte("emb"), tensor.NewDense(0, 0))
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
