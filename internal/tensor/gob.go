package tensor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Wire encoding for the tensor types, used by the TCP transport. Dense keeps
// its fields unexported, so it provides explicit GobEncode/GobDecode; Sparse
// additionally round-trips its coalesced flag, which gob would otherwise
// drop.

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

// GobDecode implements gob.GobDecoder.
func (t *Dense) GobDecode(b []byte) error {
	var w denseWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("tensor: decoding dense: %w", err)
	}
	n := 1
	for _, d := range w.Shape {
		if d < 0 {
			return fmt.Errorf("tensor: decoded negative dimension %d", d)
		}
		if d != 0 && n > math.MaxInt/d {
			return fmt.Errorf("tensor: decoded shape %v overflows an element count", w.Shape)
		}
		n *= d
	}
	if n != len(w.Data) {
		return fmt.Errorf("tensor: decoded shape %v wants %d elements, got %d", w.Shape, n, len(w.Data))
	}
	t.shape = w.Shape
	t.data = w.Data
	return nil
}

type sparseWire struct {
	NumRows   int
	Dim       int
	Indices   []int64
	Vals      []float32
	Coalesced bool
}

// GobEncode implements gob.GobEncoder.
func (s *Sparse) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	w := sparseWire{
		NumRows:   s.NumRows,
		Dim:       s.Dim,
		Indices:   s.Indices,
		Vals:      s.Vals,
		Coalesced: s.coalesced,
	}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("tensor: encoding sparse: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Sparse) GobDecode(b []byte) error {
	var w sparseWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("tensor: decoding sparse: %w", err)
	}
	if w.NumRows < 0 || w.Dim < 0 {
		return fmt.Errorf("tensor: decoded sparse shape %d x %d is negative", w.NumRows, w.Dim)
	}
	if w.Dim != 0 && max(w.NumRows, len(w.Indices)) > math.MaxInt/w.Dim {
		return fmt.Errorf("tensor: decoded sparse dim %d overflows %d rows or %d indices",
			w.Dim, w.NumRows, len(w.Indices))
	}
	if len(w.Vals) != len(w.Indices)*w.Dim {
		return fmt.Errorf("tensor: decoded sparse vals %d != %d indices * dim %d",
			len(w.Vals), len(w.Indices), w.Dim)
	}
	for _, ix := range w.Indices {
		if ix < 0 || ix >= int64(w.NumRows) {
			return fmt.Errorf("tensor: decoded sparse index %d out of range [0,%d)", ix, w.NumRows)
		}
	}
	s.NumRows = w.NumRows
	s.Dim = w.Dim
	s.Indices = w.Indices
	s.Vals = w.Vals
	s.coalesced = w.Coalesced
	return nil
}
