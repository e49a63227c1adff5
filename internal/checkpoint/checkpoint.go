// Package checkpoint serializes training state — parameters and optimizer
// internals — so long sparse-model runs can stop and resume exactly. The
// format is self-contained gob with a version header and a CRC-sealed body;
// a resumed run is bit-identical to an uninterrupted one (tested), and a
// truncated or bit-flipped file is rejected with ErrCorrupt instead of
// whatever confusion a raw gob decoder would produce.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"embrace/internal/optim"
	"embrace/internal/partition"
	"embrace/internal/tensor"
)

// version is bumped on incompatible format changes. Version 2 seals the body
// in a checksummed envelope (see sealed).
const version = 2

// magic guards against feeding arbitrary files to Load.
const magic = "embrace-checkpoint"

// ErrCorrupt marks a checkpoint file that is damaged — truncated, bit-flipped,
// or structurally inconsistent. Callers distinguish it (errors.Is) from
// "wrong file" or I/O errors to decide between falling back to an older
// snapshot and failing loudly.
var ErrCorrupt = errors.New("corrupt checkpoint")

// Checkpoint is a complete training snapshot.
type Checkpoint struct {
	// Step is the number of completed training steps.
	Step int
	// Params maps parameter names to their tensors (the embedding table
	// plus the trunk weights).
	Params map[string]*tensor.Dense
	// Optim maps parameter names to their optimizer state.
	Optim map[string]optim.State
}

// header leads every serialized checkpoint.
type header struct {
	Magic   string
	Version int
}

// sealed wraps the gob-encoded Checkpoint body with a checksum. Nesting the
// body as one opaque byte field keeps the outer decoder from over-reading the
// stream and lets Load verify integrity before interpreting a single field —
// a flipped bit fails the CRC instead of surfacing as a cryptic gob error or,
// worse, silently corrupted weights.
type sealed struct {
	Body []byte
	CRC  uint32
}

// Save writes the checkpoint to w.
func Save(w io.Writer, c *Checkpoint) error {
	if c == nil {
		return fmt.Errorf("checkpoint: nil checkpoint")
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(c); err != nil {
		return fmt.Errorf("checkpoint: encoding body: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version}); err != nil {
		return fmt.Errorf("checkpoint: writing header: %w", err)
	}
	env := sealed{Body: body.Bytes(), CRC: crc32.ChecksumIEEE(body.Bytes())}
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("checkpoint: writing body: %w", err)
	}
	return nil
}

// Load reads a checkpoint from r, verifying the header, the body checksum,
// and the structural consistency of the snapshot (see Validate). Damage is
// reported as an error wrapping ErrCorrupt with a description of what failed,
// never a raw gob decode error.
func Load(r io.Reader) (*Checkpoint, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: unreadable header (truncated or not a checkpoint): %v", ErrCorrupt, err)
	}
	if h.Magic != magic {
		return nil, fmt.Errorf("checkpoint: not a checkpoint file (magic %q)", h.Magic)
	}
	if h.Version != version {
		return nil, fmt.Errorf("checkpoint: version %d unsupported (want %d)", h.Version, version)
	}
	var env sealed
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: body truncated: %v", ErrCorrupt, err)
	}
	if got := crc32.ChecksumIEEE(env.Body); got != env.CRC {
		return nil, fmt.Errorf("checkpoint: %w: body checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, env.CRC)
	}
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(env.Body)).Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: undecodable body: %v", ErrCorrupt, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the snapshot's internal consistency: every parameter tensor
// is present and non-empty, and every optimizer-state entry names an existing
// parameter whose shape agrees with the state it carries (Adam moments and
// Adagrad accumulators must match their parameter element-for-element).
// Load calls this; Reload paths that receive an in-memory Checkpoint should
// too, before swapping it in.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return fmt.Errorf("checkpoint: nil checkpoint")
	}
	for name, p := range c.Params {
		if p == nil {
			return fmt.Errorf("checkpoint: %w: param %q is nil", ErrCorrupt, name)
		}
		if p.Len() == 0 {
			return fmt.Errorf("checkpoint: %w: param %q of shape %v is empty", ErrCorrupt, name, p.Shape())
		}
	}
	for name, st := range c.Optim {
		p, ok := c.Params[name]
		if !ok {
			return fmt.Errorf("checkpoint: %w: optimizer state for %q has no matching param", ErrCorrupt, name)
		}
		switch st.Kind {
		case "sgd":
			// Stateless; nothing to check.
		case "adagrad":
			if st.Accum == nil || st.Accum.Len() != p.Len() {
				return fmt.Errorf("checkpoint: %w: adagrad accumulator for %q has %d elems, param has %d",
					ErrCorrupt, name, accLen(st.Accum), p.Len())
			}
		case "adam":
			if st.M == nil || st.M.Len() != p.Len() {
				return fmt.Errorf("checkpoint: %w: adam first moment for %q has %d elems, param has %d",
					ErrCorrupt, name, accLen(st.M), p.Len())
			}
			if st.V == nil || st.V.Len() != p.Len() {
				return fmt.Errorf("checkpoint: %w: adam second moment for %q has %d elems, param has %d",
					ErrCorrupt, name, accLen(st.V), p.Len())
			}
		default:
			return fmt.Errorf("checkpoint: %w: unknown optimizer kind %q for %q", ErrCorrupt, st.Kind, name)
		}
	}
	return nil
}

// ColumnShard slices shard r's column-wise partition of the named 2-D
// parameter out of the snapshot, for a world of n shards — the per-rank
// restore primitive of an elastic world rebuild. The interval comes from
// partition.ColumnWise.Range, the same tiling the EmbRace workers shard
// with, so a rank restoring its shard from a checkpoint written at any
// world size gets exactly the columns the new layout assigns it. The
// returned tensor is a copy: many ranks can slice the same snapshot
// concurrently, and training on the shard never mutates the checkpoint.
func (c *Checkpoint) ColumnShard(name string, n, r int) (*tensor.Dense, error) {
	if c == nil {
		return nil, fmt.Errorf("checkpoint: nil checkpoint")
	}
	if n <= 0 || r < 0 || r >= n {
		return nil, fmt.Errorf("checkpoint: shard %d of %d out of range", r, n)
	}
	p, ok := c.Params[name]
	if !ok || p == nil {
		return nil, fmt.Errorf("checkpoint: no param %q to shard", name)
	}
	if p.Dims() != 2 {
		return nil, fmt.Errorf("checkpoint: param %q has %d dims, need 2 to column-shard", name, p.Dims())
	}
	rows, dim := p.Dim(0), p.Dim(1)
	lo, hi := partition.ColumnWise{}.Range(dim, n, r)
	out := tensor.NewDense(rows, hi-lo)
	for row := 0; row < rows; row++ {
		copy(out.Row(row), p.Row(row)[lo:hi])
	}
	return out, nil
}

// accLen is Len tolerant of nil, for error messages.
func accLen(d *tensor.Dense) int {
	if d == nil {
		return 0
	}
	return d.Len()
}

// SaveFile writes the checkpoint to path atomically (write to a temp file in
// the same directory, then rename), so a crash mid-save never corrupts an
// existing checkpoint.
func SaveFile(path string, c *Checkpoint) error {
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: committing: %w", err)
	}
	return nil
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
