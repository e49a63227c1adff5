// Package a seeds rawtag violations and allowed patterns.
package a

import (
	"embrace/internal/collective"
	"embrace/internal/comm"
)

func flagged(t comm.Transport, buf []float32) error {
	if err := t.Send(1, 42, buf); err != nil { // want `raw Transport\.Send with a hand-numbered tag literal`
		return err
	}
	_, err := t.Recv(0, -7) // want `raw Transport\.Recv with a hand-numbered tag literal`
	return err
}

func allowed(t comm.Transport, buf []float32) error {
	c := collective.NewCommunicator(t)
	if err := c.AllReduce("dense/grad", 0, buf); err != nil {
		return err
	}
	if _, err := collective.GatherVia(c, "stats", 0, 0, 1.0); err != nil {
		return err
	}
	// A computed tag is the Communicator handing out tag ranges, not a
	// hand-numbered constant.
	tag, err := c.Tag("raw/proto")
	if err != nil {
		return err
	}
	if err := t.Send(1, tag, buf); err != nil {
		return err
	}
	//embrace:allow rawtag exercising the suppression mechanism itself
	return t.Send(1, 9, buf)
}
