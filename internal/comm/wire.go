package comm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// The TCP wire format. Every Send is one frame, written with one conn.Write:
//
//	tag int64 | kind byte | body
//
// little-endian and fixed-width. There is no sender field: the handshake
// binds each connection to one peer. Bodies by kind:
//
//	kindSeq      seq int64 | step int64 | one inner kind + body (never kindSeq)
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
// kinds are the whole payload set: SizeOf admits exactly these types, every
// fabric's Send rejects anything else with ErrPayloadType, and a dense frame
// is rebuilt through tensor.FromSlice, which rejects shapes its data cannot
// fill.

const (
	kindSeq byte = iota + 1
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

// maxFrameBytes bounds one encoded frame. A reader rejects any declared
// length that would take the frame past it before allocating for it.
const maxFrameBytes = 1 << 30

// ErrPayloadType is returned by every fabric's Send for a payload outside
// the wire's payload set, so a payload the in-process fabric accepts cannot
// fail on TCP.
var ErrPayloadType = errors.New("comm: payload type has no wire kind")

var (
	errFrameSize = errors.New("comm: frame exceeds the maximum frame size")
	errNestedSeq = fmt.Errorf("%w: SeqFrame nested in a SeqFrame", ErrPayloadType)
)

// SizeOf decides which payloads cross a fabric: it returns the payload bytes
// of a member of the set, and ErrPayloadType for anything else. A SeqFrame
// counts the payload it carries (its seq and step are framing, like the
// tag); int and struct{} are control values and count zero.
func SizeOf(payload any) (int64, error) {
	switch v := payload.(type) {
	case SeqFrame:
		if _, nested := v.Payload.(SeqFrame); nested {
			return 0, errNestedSeq
		}
		return SizeOf(v.Payload)
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
	return 0, fmt.Errorf("%w: %T", ErrPayloadType, payload)
}

var le = binary.LittleEndian

// framePool holds the scratch every frame is encoded into and every frame
// body is read into, so no connection keeps a buffer of its own.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// frameEncoder appends frames to buf.
type frameEncoder struct {
	buf []byte
}

// frame appends the frame carrying payload under tag.
func (e *frameEncoder) frame(tag int, payload any) error {
	e.buf = le.AppendUint64(e.buf, uint64(tag))
	return e.value(payload, false)
}

// count appends a slice length, -1 for a nil slice.
func (e *frameEncoder) count(isNil bool, n int) {
	if isNil {
		n = -1
	}
	e.buf = le.AppendUint64(e.buf, uint64(n))
}

// grow extends buf by n bytes and returns them.
func (e *frameEncoder) grow(n int) []byte {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:off+n]
	return e.buf[off:]
}

func (e *frameEncoder) value(payload any, inSeq bool) error {
	switch v := payload.(type) {
	case SeqFrame:
		if inSeq {
			return errNestedSeq
		}
		e.buf = append(e.buf, kindSeq)
		e.buf = le.AppendUint64(e.buf, uint64(v.Seq))
		e.buf = le.AppendUint64(e.buf, uint64(v.Step))
		return e.value(v.Payload, true)
	case []float32:
		e.buf = append(e.buf, kindF32)
		e.float32s(v)
	case []int64:
		e.buf = append(e.buf, kindI64)
		e.count(v == nil, len(v))
		e.int64s(v)
	case [][]int64:
		e.buf = append(e.buf, kindI64Rows)
		e.count(v == nil, len(v))
		for _, row := range v {
			e.count(row == nil, len(row))
			e.int64s(row)
		}
	case []byte:
		e.buf = append(e.buf, kindBytes)
		e.count(v == nil, len(v))
		e.buf = append(e.buf, v...)
	case int:
		e.buf = le.AppendUint64(append(e.buf, kindInt), uint64(v))
	case struct{}:
		e.buf = append(e.buf, kindEmpty)
	case *tensor.Dense:
		if v == nil {
			return fmt.Errorf("%w: %T", ErrPayloadType, payload)
		}
		e.buf = append(e.buf, kindDense)
		e.count(false, v.Dims())
		for _, d := range v.Shape() {
			e.buf = le.AppendUint64(e.buf, uint64(d))
		}
		e.float32s(v.Data())
	case nn.StepStats:
		e.buf = append(e.buf, kindStats)
		e.buf = le.AppendUint64(e.buf, math.Float64bits(v.Loss))
		e.buf = le.AppendUint64(e.buf, uint64(v.Correct))
		e.buf = le.AppendUint64(e.buf, uint64(v.Count))
	default:
		return fmt.Errorf("%w: %T", ErrPayloadType, payload)
	}
	return nil
}

func (e *frameEncoder) float32s(v []float32) {
	e.count(v == nil, len(v))
	b := e.grow(4 * len(v))
	for i, x := range v {
		le.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

func (e *frameEncoder) int64s(v []int64) {
	b := e.grow(8 * len(v))
	for i, x := range v {
		le.PutUint64(b[8*i:], uint64(x))
	}
}

// frameReader reads frames off one connection. One goroutine owns it: the
// handshake, then the connection's reader.
type frameReader struct {
	r       *bufio.Reader
	left    int    // bytes the current frame may still take
	scratch []byte // pooled; holds one body at a time
	word    [8]byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// frame reads the next frame. It returns io.EOF only when the stream ends
// cleanly between frames. Decoded slices are freshly allocated and owned by
// the caller.
func (fr *frameReader) frame() (tag int, payload any, err error) {
	p := framePool.Get().(*[]byte)
	fr.scratch = (*p)[:0]
	defer func() {
		*p = fr.scratch[:0]
		fr.scratch = nil
		framePool.Put(p)
	}()
	fr.left = maxFrameBytes
	t, err := fr.int64()
	if err != nil {
		return 0, nil, err
	}
	payload, err = fr.value(false)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return int(t), payload, nil
}

// take charges n bytes to the current frame.
func (fr *frameReader) take(n int) error {
	if n > fr.left {
		return errFrameSize
	}
	fr.left -= n
	return nil
}

func (fr *frameReader) int64() (int64, error) {
	if err := fr.take(8); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(fr.r, fr.word[:]); err != nil {
		return 0, err
	}
	return int64(le.Uint64(fr.word[:])), nil
}

// count reads a slice length of size-byte elements: -1 is nil, and a
// length that cannot fit in the rest of the frame is rejected unread.
func (fr *frameReader) count(size int) (n int, isNil bool, err error) {
	v, err := fr.int64()
	switch {
	case err != nil:
		return 0, false, err
	case v == -1:
		return 0, true, nil
	case v < 0:
		return 0, false, fmt.Errorf("comm: negative frame count %d", v)
	case v > int64(fr.left/size):
		return 0, false, errFrameSize
	}
	return int(v), false, nil
}

// body reads the next n bytes into the scratch, which grows only as bytes
// arrive: a declared length costs memory only once it is backed by input.
func (fr *frameReader) body(n int) ([]byte, error) {
	if err := fr.take(n); err != nil {
		return nil, err
	}
	b := fr.scratch[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(cap(b), 4096)))
		}
		k, err := io.ReadFull(fr.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			fr.scratch = b
			return nil, err
		}
	}
	fr.scratch = b
	return b, nil
}

// slice reads a counted body of size-byte elements.
func (fr *frameReader) slice(size int) (b []byte, isNil bool, err error) {
	n, isNil, err := fr.count(size)
	if err != nil || isNil {
		return nil, isNil, err
	}
	b, err = fr.body(n * size)
	return b, false, err
}

func (fr *frameReader) int64s() ([]int64, error) {
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

func (fr *frameReader) float32s() ([]float32, error) {
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

func (fr *frameReader) value(inSeq bool) (any, error) {
	if err := fr.take(1); err != nil {
		return nil, err
	}
	kind, err := fr.r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindSeq:
		if inSeq {
			return nil, errNestedSeq
		}
		seq, err := fr.int64()
		if err != nil {
			return nil, err
		}
		step, err := fr.int64()
		if err != nil {
			return nil, err
		}
		inner, err := fr.value(true)
		if err != nil {
			return nil, err
		}
		return SeqFrame{Seq: seq, Step: int(step), Payload: inner}, nil
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
		v, err := fr.int64()
		return int(v), err
	case kindEmpty:
		return struct{}{}, nil
	case kindDense:
		n, isNil, err := fr.count(8)
		if err != nil {
			return nil, err
		}
		if isNil {
			return nil, errors.New("comm: dense frame with a nil shape")
		}
		// Dims are appended as they arrive, not allocated from n.
		shape := make([]int, 0, min(n, 8))
		for range n {
			d, err := fr.int64()
			if err != nil {
				return nil, err
			}
			shape = append(shape, int(d))
		}
		data, err := fr.float32s()
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(data, shape...)
	case kindStats:
		var w [3]int64
		for i := range w {
			if w[i], err = fr.int64(); err != nil {
				return nil, err
			}
		}
		return nn.StepStats{Loss: math.Float64frombits(uint64(w[0])), Correct: int(w[1]), Count: int(w[2])}, nil
	}
	return nil, fmt.Errorf("comm: unknown frame kind %d", kind)
}
