// Package checkpoint serializes training state — parameters and optimizer
// internals — so long sparse-model runs can stop and resume exactly. A file
// (format 3) is a run of values in the wire package's format, sealed with
// its length and a CRC:
//
//	magic "embrace-checkpoint" | version int64 (3) | body length int64 | body | CRC-32 of body uint32
//	body = []int64{step, params, optims}
//	       params × ([]byte name | *tensor.Dense)                          in name order
//	       optims × ([]byte name | []byte kind | []int64{step} | tensors)  in name order
//
// where "sgd" carries no tensor, "adagrad" its accumulator and "adam" its
// two moments. Floats travel as their bits and maps in name order, so a
// snapshot reloads bit-equal and always saves to the same bytes, and a
// resumed run is bit-identical to an uninterrupted one (tested). Damage
// fails with ErrCorrupt; another format version, the gob files of formats
// 1 and 2 among them, with ErrVersion.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"embrace/internal/optim"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/wire"
)

const (
	// version is bumped on incompatible format changes. Format 3 replaced
	// format 2's gob body with wire values; no converter exists.
	version = 3
	// magic guards against feeding arbitrary files to Load.
	magic = "embrace-checkpoint"
	// prefixLen is the magic, the version and the body length.
	prefixLen = len(magic) + 16
	// gobHeader begins every format 1 and 2 file: gob's definition of the
	// header struct those formats led with.
	gobHeader = "*\xff\x91\x03\x01\x01\x06header"
)

// ErrCorrupt marks a checkpoint file that is damaged — truncated, bit-flipped,
// or structurally inconsistent. Callers distinguish it (errors.Is) from
// "wrong file" or I/O errors to decide between falling back to an older
// snapshot and failing loudly.
var ErrCorrupt = errors.New("corrupt checkpoint")

// ErrVersion marks an intact checkpoint of a format version this build does
// not read.
var ErrVersion = errors.New("unsupported checkpoint format version")

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

var le = binary.LittleEndian

// Save writes the checkpoint to w. It refuses a checkpoint that fails
// Validate, since Load would reject its file.
func Save(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	vals := []any{[]int64{int64(c.Step), int64(len(c.Params)), int64(len(c.Optim))}}
	for _, name := range sortedKeys(c.Params) {
		vals = append(vals, []byte(name), c.Params[name])
	}
	for _, name := range sortedKeys(c.Optim) {
		st := c.Optim[name]
		vals = append(vals, []byte(name), []byte(st.Kind), []int64{int64(st.Step)})
		slots, _ := stateSlots(&st)
		for _, s := range slots {
			vals = append(vals, *s.t)
		}
	}
	size := prefixLen + 4
	for _, v := range vals {
		n, _ := wire.SizeOf(v) // only a capacity hint; Value reports a non-member
		size += int(n) + 64    // a kind byte, counts and up to six dims
	}
	e := wire.Encoder{Buf: make([]byte, prefixLen, size)}
	copy(e.Buf, magic)
	le.PutUint64(e.Buf[len(magic):], version)
	for _, v := range vals {
		if err := e.Value(v); err != nil {
			return fmt.Errorf("checkpoint: encoding: %w", err)
		}
	}
	body := e.Buf[prefixLen:]
	le.PutUint64(e.Buf[len(magic)+8:], uint64(len(body)))
	e.Buf = le.AppendUint32(e.Buf, crc32.ChecksumIEEE(body))
	if _, err := w.Write(e.Buf); err != nil {
		return fmt.Errorf("checkpoint: writing: %w", err)
	}
	return nil
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// slot is one tensor an optimizer kind carries.
type slot struct {
	name string
	t    **tensor.Dense
}

// stateSlots returns the tensors st's kind carries, in file order, and
// false for an unknown kind.
func stateSlots(st *optim.State) ([]slot, bool) {
	switch st.Kind {
	case "sgd":
		return nil, true
	case "adagrad":
		return []slot{{"adagrad accumulator", &st.Accum}}, true
	case "adam":
		return []slot{{"adam first moment", &st.M}, {"adam second moment", &st.V}}, true
	}
	return nil, false
}

// Load reads a checkpoint from r, verifying the prefix, the body checksum,
// and the structural consistency of the snapshot (see Validate). The body
// is decoded as it streams in, under a budget of its declared length, so
// memory grows only with bytes that arrive; the CRC is checked before the
// snapshot is returned.
func Load(r io.Reader) (*Checkpoint, error) {
	var prefix [prefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: unreadable header (truncated or not a checkpoint): %v", ErrCorrupt, err)
	}
	switch {
	case bytes.HasPrefix(prefix[:], []byte(gobHeader)):
		return nil, fmt.Errorf("checkpoint: %w: a gob file of version 1 or 2 (want %d); there is no converter", ErrVersion, version)
	case string(prefix[:len(magic)]) != magic:
		return nil, fmt.Errorf("checkpoint: %w: not a checkpoint file (magic %q)", ErrCorrupt, prefix[:len(magic)])
	}
	if v := le.Uint64(prefix[len(magic):]); v != version {
		return nil, fmt.Errorf("checkpoint: %w: version %d (want %d)", ErrVersion, v, version)
	}
	// bufio never reads past the limit, so the CRC trailer stays in r and
	// the hash sees exactly the body. A negative length leaves no budget.
	n := int64(le.Uint64(prefix[len(magic)+8:]))
	sum := crc32.NewIEEE()
	fr := wire.NewReader(io.TeeReader(io.LimitReader(r, n), sum))
	fr.Left = int(n)
	c, err := decode(fr)
	switch {
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	case err == nil && fr.Left != 0:
		err = fmt.Errorf("the values end %d bytes before the declared body length", fr.Left)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w: undecodable body: %v", ErrCorrupt, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: checksum truncated: %v", ErrCorrupt, err)
	}
	if got, want := sum.Sum32(), le.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("checkpoint: %w: body checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// decoder reads a body's values, keeping the first error; once one is set,
// every further read yields a zero value.
type decoder struct {
	fr   *wire.Reader
	err  error
	last string // the previous entry's name
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// get reads one value, which must be a T.
func get[T any](d *decoder) (t T) {
	if d.err != nil {
		return t
	}
	v, err := d.fr.Value()
	if err != nil {
		d.err = err
		return t
	}
	t, ok := v.(T)
	if !ok {
		d.fail("value %T, want %T", v, t)
	}
	return t
}

// name reads an entry's name; after a section's first, each must follow the
// one before in name order.
func (d *decoder) name(first bool) string {
	name := string(get[[]byte](d))
	if !first && name <= d.last {
		d.fail("name %q does not follow %q", name, d.last)
	}
	d.last = name
	return name
}

// decode reads the body's values. Maps grow as entries arrive, never from
// the counts the header declares.
func decode(fr *wire.Reader) (*Checkpoint, error) {
	d := &decoder{fr: fr}
	head := get[[]int64](d)
	if d.err == nil && (len(head) != 3 || head[1] < 0 || head[2] < 0) {
		d.fail("header %v, want [step params optims]", head)
	}
	if d.err != nil {
		return nil, d.err
	}
	c := &Checkpoint{Step: int(head[0]), Params: map[string]*tensor.Dense{}, Optim: map[string]optim.State{}}
	for i := int64(0); i < head[1] && d.err == nil; i++ {
		name := d.name(i == 0)
		c.Params[name] = get[*tensor.Dense](d)
	}
	for i := int64(0); i < head[2] && d.err == nil; i++ {
		name := d.name(i == 0)
		st := optim.State{Kind: string(get[[]byte](d))}
		if step := get[[]int64](d); len(step) == 1 {
			st.Step = int(step[0])
		} else {
			d.fail("optimizer state %q: step %v, want one word", name, step)
		}
		slots, ok := stateSlots(&st)
		if !ok {
			d.fail("optimizer state %q: unknown kind %q", name, st.Kind)
		}
		for _, s := range slots {
			*s.t = get[*tensor.Dense](d)
		}
		c.Optim[name] = st
	}
	return c, d.err
}

// Validate checks the snapshot's internal consistency: every parameter tensor
// is present and non-empty, and every optimizer-state entry names an existing
// parameter whose shape agrees with the state it carries (Adam moments and
// Adagrad accumulators must match their parameter element-for-element).
// Save and Load call this; Reload paths that receive an in-memory
// Checkpoint should too, before swapping it in.
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
		slots, known := stateSlots(&st)
		if !known {
			return fmt.Errorf("checkpoint: %w: unknown optimizer kind %q for %q", ErrCorrupt, st.Kind, name)
		}
		for _, s := range slots {
			if *s.t == nil || (*s.t).Len() != p.Len() {
				return fmt.Errorf("checkpoint: %w: %s for %q has %d elems, param has %d",
					ErrCorrupt, s.name, name, accLen(*s.t), p.Len())
			}
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

// SaveFile writes the checkpoint to path atomically: it writes a temp file
// in the same directory, syncs it, then renames it over path, so a crash
// mid-save never corrupts an existing checkpoint.
func SaveFile(path string, c *Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing temp file: %w", err)
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
