// Package wire is the repo's one byte format: a closed set of value kinds,
// their little-endian encoder and a heap-bounded reader. The TCP fabric
// (internal/comm) puts a tag and its SeqFrame envelope around one value per
// message; the checkpoint file (internal/checkpoint) is a checksummed run of
// values.
//
// A value is one kind byte and a fixed-width little-endian body:
//
//	KindSeq      reserved for comm's SeqFrame envelope; Body never reads it
//	kindF32      n int64 | n × float32 bits       ([]float32)
//	kindI64      n int64 | n × int64              ([]int64)
//	kindI64Rows  rows int64 | rows × (n int64 | n × int64)   ([][]int64)
//	kindBytes    n int64 | n bytes                ([]byte)
//	kindInt      v int64                          (int)
//	kindEmpty    nothing                          (struct{})
//	kindDense    d int64 | d × int64 dims | kindF32's body   (*tensor.Dense)
//	kindStats    loss float64 bits | correct int64 | count int64   (nn.StepStats)
//
// A count of -1 is a nil slice, so nil and empty arrive as they were sent,
// and floats travel as their bits, so every NaN payload survives. These
// kinds are the whole value set: SizeOf admits exactly these types, the
// encoder rejects anything else with ErrPayloadType, and a dense value is
// rebuilt through tensor.FromSlice, which rejects shapes its data cannot
// fill.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// The value kinds. KindSeq is the one comm reads itself, for its SeqFrame
// envelope; Body rejects it like any other unknown kind.
const (
	KindSeq byte = iota + 1
	kindF32
	kindI64
	kindI64Rows
	kindBytes
	kindInt
	kindEmpty
	_ // 8 is retired (it carried gob bodies) and reads as an unknown kind
	kindDense
	kindStats
)

// MaxFrameBytes bounds one TCP frame. A reader rejects any declared length
// that would take its frame past its budget before allocating for it.
const MaxFrameBytes = 1 << 30

// ErrPayloadType is returned for a value outside the set, so a payload the
// in-process fabric accepts cannot fail on TCP or on disk.
var ErrPayloadType = errors.New("wire: payload type has no wire kind")

// ErrFrameSize is returned when a frame outgrows its byte budget: a TCP
// frame past MaxFrameBytes, or a checkpoint value past its file's declared
// body length.
var ErrFrameSize = errors.New("wire: frame exceeds its byte budget")

// SizeOf returns the payload bytes of a member of the value set, and
// ErrPayloadType for anything else. int and struct{} are control values and
// count zero.
func SizeOf(v any) (int64, error) {
	switch v := v.(type) {
	case []float32:
		return int64(4 * len(v)), nil
	case []int64:
		return int64(8 * len(v)), nil
	case [][]int64:
		var n int64
		for _, row := range v {
			n += int64(8 * len(row))
		}
		return n, nil
	case []byte:
		return int64(len(v)), nil
	case *tensor.Dense:
		if v != nil {
			return int64(v.SizeBytes()), nil
		}
	case nn.StepStats:
		return 24, nil
	case int, struct{}:
		return 0, nil
	}
	return 0, fmt.Errorf("%w: %T", ErrPayloadType, v)
}

var le = binary.LittleEndian

// Encoder appends words and values to Buf.
type Encoder struct {
	Buf []byte
}

// Word appends one int64.
func (e *Encoder) Word(v int64) {
	e.Buf = le.AppendUint64(e.Buf, uint64(v))
}

// count appends a slice length, -1 for a nil slice.
func (e *Encoder) count(isNil bool, n int) {
	if isNil {
		n = -1
	}
	e.Word(int64(n))
}

// grow extends Buf by n bytes and returns them.
func (e *Encoder) grow(n int) []byte {
	off := len(e.Buf)
	e.Buf = slices.Grow(e.Buf, n)[:off+n]
	return e.Buf[off:]
}

// Value appends v's kind byte and body.
func (e *Encoder) Value(v any) error {
	switch v := v.(type) {
	case []float32:
		e.Buf = append(e.Buf, kindF32)
		e.float32s(v)
	case []int64:
		e.Buf = append(e.Buf, kindI64)
		e.count(v == nil, len(v))
		e.int64s(v)
	case [][]int64:
		e.Buf = append(e.Buf, kindI64Rows)
		e.count(v == nil, len(v))
		for _, row := range v {
			e.count(row == nil, len(row))
			e.int64s(row)
		}
	case []byte:
		e.Buf = append(e.Buf, kindBytes)
		e.count(v == nil, len(v))
		e.Buf = append(e.Buf, v...)
	case int:
		e.Buf = append(e.Buf, kindInt)
		e.Word(int64(v))
	case struct{}:
		e.Buf = append(e.Buf, kindEmpty)
	case *tensor.Dense:
		if v == nil {
			return fmt.Errorf("%w: %T", ErrPayloadType, v)
		}
		e.Buf = append(e.Buf, kindDense)
		e.count(false, v.Dims())
		for _, d := range v.Shape() {
			e.Word(int64(d))
		}
		e.float32s(v.Data())
	case nn.StepStats:
		e.Buf = append(e.Buf, kindStats)
		e.Word(int64(math.Float64bits(v.Loss)))
		e.Word(int64(v.Correct))
		e.Word(int64(v.Count))
	default:
		return fmt.Errorf("%w: %T", ErrPayloadType, v)
	}
	return nil
}

func (e *Encoder) float32s(v []float32) {
	e.count(v == nil, len(v))
	b := e.grow(4 * len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

func (e *Encoder) int64s(v []int64) {
	b := e.grow(8 * len(v))
	for i, x := range v {
		le.PutUint64(b[8*i:], uint64(x))
	}
}

// Reader reads words and values off one stream. One goroutine owns it.
// Every read is charged to Left, and a declared length that cannot fit in
// what is left is rejected before anything is allocated for it.
type Reader struct {
	// Left is the bytes the current frame may still take; set it before
	// each frame.
	Left int
	// Scratch holds one body at a time, growing only as bytes arrive, so a
	// declared length costs memory only once input backs it. It may be nil,
	// or pooled scratch lent for one frame.
	Scratch []byte

	r    *bufio.Reader
	word [8]byte
}

// NewReader returns a Reader over r with nothing Left.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// take charges n bytes to the current frame.
func (fr *Reader) take(n int) error {
	if n > fr.Left {
		return ErrFrameSize
	}
	fr.Left -= n
	return nil
}

// Word reads one int64.
func (fr *Reader) Word() (int64, error) {
	if err := fr.take(8); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(fr.r, fr.word[:]); err != nil {
		return 0, err
	}
	return int64(le.Uint64(fr.word[:])), nil
}

// Kind reads one kind byte.
func (fr *Reader) Kind() (byte, error) {
	if err := fr.take(1); err != nil {
		return 0, err
	}
	return fr.r.ReadByte()
}

// count reads a slice length of size-byte elements: -1 is nil, and a
// length that cannot fit in the rest of the frame is rejected unread.
func (fr *Reader) count(size int) (n int, isNil bool, err error) {
	v, err := fr.Word()
	switch {
	case err != nil:
		return 0, false, err
	case v == -1:
		return 0, true, nil
	case v < 0:
		return 0, false, fmt.Errorf("wire: negative count %d", v)
	case v > int64(fr.Left/size):
		return 0, false, ErrFrameSize
	}
	return int(v), false, nil
}

// body reads the next n bytes into the scratch, which grows only as bytes
// arrive.
func (fr *Reader) body(n int) ([]byte, error) {
	if err := fr.take(n); err != nil {
		return nil, err
	}
	b := fr.Scratch[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(cap(b), 4096)))
		}
		k, err := io.ReadFull(fr.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			fr.Scratch = b
			return nil, err
		}
	}
	fr.Scratch = b
	return b, nil
}

// slice reads a counted body of size-byte elements.
func (fr *Reader) slice(size int) (b []byte, isNil bool, err error) {
	n, isNil, err := fr.count(size)
	if err != nil || isNil {
		return nil, isNil, err
	}
	b, err = fr.body(n * size)
	return b, false, err
}

func (fr *Reader) int64s() ([]int64, error) {
	b, isNil, err := fr.slice(8)
	if err != nil || isNil {
		return nil, err
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(le.Uint64(b[8*i:]))
	}
	return out, nil
}

func (fr *Reader) float32s() ([]float32, error) {
	b, isNil, err := fr.slice(4)
	if err != nil || isNil {
		return nil, err
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(le.Uint32(b[4*i:]))
	}
	return out, nil
}

// Value reads one kind byte and its body.
func (fr *Reader) Value() (any, error) {
	kind, err := fr.Kind()
	if err != nil {
		return nil, err
	}
	return fr.Body(kind)
}

// Body reads the body of a value of the given kind. Decoded slices are
// freshly allocated and owned by the caller.
func (fr *Reader) Body(kind byte) (any, error) {
	switch kind {
	case kindF32:
		return fr.float32s()
	case kindI64:
		return fr.int64s()
	case kindI64Rows:
		n, isNil, err := fr.count(8)
		if err != nil || isNil {
			return [][]int64(nil), err
		}
		// Rows are appended as they arrive, not allocated from n.
		rows := make([][]int64, 0, min(n, 64))
		for range n {
			row, err := fr.int64s()
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	case kindBytes:
		b, isNil, err := fr.slice(1)
		if err != nil || isNil {
			return []byte(nil), err
		}
		return append(make([]byte, 0, len(b)), b...), nil
	case kindInt:
		v, err := fr.Word()
		return int(v), err
	case kindEmpty:
		return struct{}{}, nil
	case kindDense:
		dims, err := fr.int64s()
		if err == nil && dims == nil {
			err = errors.New("wire: dense value with a nil shape")
		}
		if err != nil {
			return nil, err
		}
		shape := make([]int, len(dims))
		for i, d := range dims {
			shape[i] = int(d)
		}
		data, err := fr.float32s()
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(data, shape...)
	case kindStats:
		var w [3]int64
		for i := range w {
			var err error
			if w[i], err = fr.Word(); err != nil {
				return nil, err
			}
		}
		return nn.StepStats{Loss: math.Float64frombits(uint64(w[0])), Correct: int(w[1]), Count: int(w[2])}, nil
	}
	return nil, fmt.Errorf("wire: unknown value kind %d", kind)
}
