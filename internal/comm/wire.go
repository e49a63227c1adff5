package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
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
//	kindGob      n int64 | n bytes of gob         (anything else)
//
// A count of -1 is a nil slice, so nil and empty arrive as they were sent,
// and floats travel as their bits, so every NaN payload survives. Payloads of
// types comm cannot see (tensors, the sparse stream header, stats structs)
// take kindGob: one gob stream per connection and direction, so each type
// descriptor crosses once per connection. Those types must be registered
// with RegisterWireType.

const (
	kindSeq byte = iota + 1
	kindF32
	kindI64
	kindI64Rows
	kindBytes
	kindInt
	kindEmpty
	kindGob
)

// maxFrameBytes bounds one encoded frame. A reader rejects any declared
// length that would take the frame past it before allocating for it.
const maxFrameBytes = 1 << 30

var (
	errFrameSize = errors.New("comm: frame exceeds the maximum frame size")
	errNestedSeq = errors.New("comm: SeqFrame nested in a SeqFrame")
)

var le = binary.LittleEndian

// framePool holds the scratch every frame is encoded into and every frame
// body is read into, so no connection keeps a buffer of its own.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// frameEncoder appends frames to buf. Its gob encoder writes into buf as
// well, so a gob body lands inside its frame.
type frameEncoder struct {
	buf []byte
	gob *gob.Encoder
}

func newFrameEncoder() *frameEncoder {
	e := &frameEncoder{}
	e.gob = gob.NewEncoder(e)
	return e
}

// Write implements io.Writer for the gob encoder.
func (e *frameEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
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
		e.count(v == nil, len(v))
		b := e.grow(4 * len(v))
		for i, x := range v {
			le.PutUint32(b[4*i:], math.Float32bits(x))
		}
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
	default:
		return e.gobValue(payload)
	}
	return nil
}

// gobValue appends a kindGob body. It is its own function because gob needs
// the payload's address, which would move every payload of value to the
// heap.
func (e *frameEncoder) gobValue(payload any) error {
	e.buf = append(e.buf, kindGob)
	at := len(e.buf)
	e.buf = le.AppendUint64(e.buf, 0)
	if err := e.gob.Encode(&payload); err != nil {
		return err
	}
	le.PutUint64(e.buf[at:], uint64(len(e.buf)-at-8))
	return nil
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
	gobIn   bytes.Reader
	gob     *gob.Decoder
}

func newFrameReader(r io.Reader) *frameReader {
	fr := &frameReader{r: bufio.NewReader(r)}
	fr.gob = gob.NewDecoder(&fr.gobIn)
	return fr
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
		b, isNil, err := fr.slice(4)
		if err != nil || isNil {
			return []float32(nil), err
		}
		out := make([]float32, len(b)/4)
		for i := range out {
			out[i] = math.Float32frombits(le.Uint32(b[4*i:]))
		}
		return out, nil
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
	case kindGob:
		b, isNil, err := fr.slice(1)
		if err != nil {
			return nil, err
		}
		if isNil {
			return nil, errors.New("comm: gob frame with a nil body")
		}
		fr.gobIn.Reset(b)
		var v any
		if err := fr.gob.Decode(&v); err != nil {
			return nil, fmt.Errorf("comm: gob frame: %w", err)
		}
		if fr.gobIn.Len() != 0 {
			return nil, fmt.Errorf("comm: gob frame: %d bytes after the value", fr.gobIn.Len())
		}
		return v, nil
	}
	return nil, fmt.Errorf("comm: unknown frame kind %d", kind)
}
