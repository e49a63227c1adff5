package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"embrace/internal/optim"
	"embrace/internal/tensor"
)

// fixture builds a realistic checkpoint and its serialized bytes.
func fixture(t *testing.T) (*Checkpoint, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	emb := tensor.RandDense(rng, 1, 16, 8)
	w1 := tensor.RandDense(rng, 2, 8, 8)
	adam := optim.NewAdamDefault(emb, 0.01)
	g, _ := tensor.NewSparse(16, 8, []int64{3, 9}, make([]float32, 16))
	if err := adam.StepSparse(g); err != nil {
		t.Fatal(err)
	}
	st, err := optim.Snapshot(adam)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &Checkpoint{
		Step:   42,
		Params: map[string]*tensor.Dense{"emb": emb, "w1": w1},
		Optim:  map[string]optim.State{"emb": st},
	}
	var buf bytes.Buffer
	if err := Save(&buf, ckpt); err != nil {
		t.Fatal(err)
	}
	return ckpt, buf.Bytes()
}

func TestLoadRejectsTruncation(t *testing.T) {
	_, raw := fixture(t)
	// Cutting the stream anywhere must produce a descriptive ErrCorrupt, not
	// a raw decode error and never a silently partial checkpoint.
	for _, n := range []int{0, 1, 10, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", n, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", n, err)
		}
		if !strings.Contains(err.Error(), "checkpoint:") {
			t.Fatalf("truncation at %d: undescriptive error %v", n, err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	_, raw := fixture(t)
	// Flip single bits well inside the sealed body: the CRC must catch every
	// one. (Prefix flips are caught separately by the magic and version checks.)
	for _, off := range []int{len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x01
		_, err := Load(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bit flip at %d/%d accepted", off, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
	// The pristine stream still loads.
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}

// A file of another format version is a format mismatch, not file damage:
// it fails with ErrVersion, never ErrCorrupt. testdata/v2.ckpt is a gob file
// of format 2, which this build no longer reads.
func TestLoadRejectsWrongVersion(t *testing.T) {
	_, raw := fixture(t)
	next := append([]byte(nil), raw...)
	le.PutUint64(next[len(magic):], version+1)
	v2, err := os.ReadFile("testdata/v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{"next version": next, "format 2": v2} {
		_, err := Load(bytes.NewReader(file))
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version") {
			t.Errorf("%s: want an ErrVersion error, got %v", name, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: version mismatch misreported as corruption: %v", name, err)
		}
	}
}

// validateCases are snapshots Validate must reject, with a fragment of the
// error each must give.
func validateCases() []struct {
	name string
	ckpt Checkpoint
	want string
} {
	p := tensor.Full(1, 8)
	return []struct {
		name string
		ckpt Checkpoint
		want string
	}{
		{
			name: "optim without param",
			ckpt: Checkpoint{Optim: map[string]optim.State{"ghost": {Kind: "sgd"}}},
			want: "no matching param",
		},
		{
			name: "nil param",
			ckpt: Checkpoint{Params: map[string]*tensor.Dense{"emb": nil}},
			want: "is nil",
		},
		{
			name: "adam first moment shape",
			ckpt: Checkpoint{
				Params: map[string]*tensor.Dense{"emb": p},
				Optim:  map[string]optim.State{"emb": {Kind: "adam", M: tensor.NewDense(4), V: tensor.NewDense(8)}},
			},
			want: "first moment",
		},
		{
			name: "adam second moment missing",
			ckpt: Checkpoint{
				Params: map[string]*tensor.Dense{"emb": p},
				Optim:  map[string]optim.State{"emb": {Kind: "adam", M: tensor.NewDense(8)}},
			},
			want: "second moment",
		},
		{
			name: "adagrad accumulator shape",
			ckpt: Checkpoint{
				Params: map[string]*tensor.Dense{"emb": p},
				Optim:  map[string]optim.State{"emb": {Kind: "adagrad", Accum: tensor.NewDense(3)}},
			},
			want: "accumulator",
		},
		{
			name: "unknown kind",
			ckpt: Checkpoint{
				Params: map[string]*tensor.Dense{"emb": p},
				Optim:  map[string]optim.State{"emb": {Kind: "rmsprop"}},
			},
			want: "unknown optimizer kind",
		},
	}
}

func TestValidateShapeAgreement(t *testing.T) {
	for _, tc := range validateCases() {
		err := tc.ckpt.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v (want ErrCorrupt containing %q)", tc.name, err, tc.want)
		}
	}
	// A consistent snapshot passes.
	p := tensor.Full(1, 8)
	good := Checkpoint{
		Params: map[string]*tensor.Dense{"emb": p},
		Optim:  map[string]optim.State{"emb": {Kind: "adam", M: tensor.NewDense(8), V: tensor.NewDense(8)}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
}

// TestLoadValidates proves a structurally inconsistent snapshot is rejected
// at Load even when its bytes are intact (checksum passes), and that Save
// refuses to write it.
func TestLoadValidates(t *testing.T) {
	bad := &Checkpoint{
		Params: map[string]*tensor.Dense{"emb": tensor.NewDense(8)},
		Optim:  map[string]optim.State{"emb": {Kind: "adam", M: tensor.NewDense(4), V: tensor.NewDense(8)}},
	}
	if err := Save(new(bytes.Buffer), bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Save wrote an inconsistent snapshot: %v", err)
	}
	raw := sealed(t, nil, []int64{0, 1, 1}, []byte("emb"), bad.Params["emb"],
		[]byte("emb"), []byte("adam"), []int64{0}, bad.Optim["emb"].M, bad.Optim["emb"].V)
	if _, err := Load(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inconsistent snapshot loaded: %v", err)
	}
}

// Save refuses every checkpoint Validate rejects, so every file it writes
// loads.
func TestSaveRefusesWhatLoadRejects(t *testing.T) {
	for _, tc := range validateCases() {
		if err := Save(new(bytes.Buffer), &tc.ckpt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Save error %v, want ErrCorrupt", tc.name, err)
		}
	}
}
