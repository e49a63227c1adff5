package tensor

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Gob encoding of Dense for the checkpoint file format. Dense keeps its
// fields unexported, so it provides explicit GobEncode/GobDecode. The TCP
// wire does not use them: it has a frame kind of its own for Dense.

type denseWire struct {
	Shape []int
	Data  []float32
}

// GobEncode implements gob.GobEncoder.
func (t *Dense) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(denseWire{Shape: t.shape, Data: t.data}); err != nil {
		return nil, fmt.Errorf("tensor: encoding dense: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The shape checks are FromSlice's.
func (t *Dense) GobDecode(b []byte) error {
	var w denseWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("tensor: decoding dense: %w", err)
	}
	d, err := FromSlice(w.Data, w.Shape...)
	if err != nil {
		return fmt.Errorf("tensor: decoding dense: %w", err)
	}
	*t = *d
	return nil
}
