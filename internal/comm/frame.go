package comm

import (
	"fmt"
	"io"
	"sync"

	"embrace/internal/wire"
)

// The TCP frame. Every Send is one frame, written with one conn.Write:
//
//	tag int64 | value
//	tag int64 | wire.KindSeq | seq int64 | step int64 | value
//
// where value is one kind byte and body of the wire package's value set;
// the second form carries a SeqFrame (never nested). There is no sender
// field: the handshake binds each connection to one peer.

var errNestedSeq = fmt.Errorf("%w: SeqFrame nested in a SeqFrame", wire.ErrPayloadType)

// checkPayload decides which payloads cross a fabric: a member of the wire's
// value set, bare or inside one SeqFrame.
func checkPayload(payload any) error {
	if f, ok := payload.(SeqFrame); ok {
		if _, nested := f.Payload.(SeqFrame); nested {
			return errNestedSeq
		}
		payload = f.Payload
	}
	_, err := wire.SizeOf(payload)
	return err
}

// framePool holds the scratch every frame is encoded into and every frame
// body is read into, so no connection keeps a buffer of its own.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encodeFrame appends the frame carrying payload under tag.
func encodeFrame(e *wire.Encoder, tag int, payload any) error {
	e.Word(int64(tag))
	if f, ok := payload.(SeqFrame); ok {
		e.Buf = append(e.Buf, wire.KindSeq)
		e.Word(f.Seq)
		e.Word(int64(f.Step))
		payload = f.Payload
	}
	return e.Value(payload)
}

// readFrame reads the next frame. It returns io.EOF only when the stream
// ends cleanly between frames. Decoded slices are freshly allocated and
// owned by the caller.
func readFrame(fr *wire.Reader) (tag int, payload any, err error) {
	p := framePool.Get().(*[]byte)
	fr.Scratch, fr.Left = *p, wire.MaxFrameBytes
	defer func() {
		*p, fr.Scratch = fr.Scratch[:0], nil
		framePool.Put(p)
	}()
	t, err := fr.Word()
	if err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(fr); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return int(t), payload, err
}

// readPayload reads a value, or a SeqFrame around one.
func readPayload(fr *wire.Reader) (any, error) {
	kind, err := fr.Kind()
	if err != nil {
		return nil, err
	}
	if kind != wire.KindSeq {
		return fr.Body(kind)
	}
	seq, err := fr.Word()
	if err != nil {
		return nil, err
	}
	step, err := fr.Word()
	if err != nil {
		return nil, err
	}
	if kind, err = fr.Kind(); err != nil {
		return nil, err
	}
	if kind == wire.KindSeq {
		return nil, errNestedSeq
	}
	inner, err := fr.Body(kind)
	if err != nil {
		return nil, err
	}
	return SeqFrame{Seq: seq, Step: int(step), Payload: inner}, nil
}
