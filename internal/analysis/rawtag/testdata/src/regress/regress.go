// Package regress reproduces the shape of the PR-1 "magic gather tag" bug:
// two logically distinct gathers hand-numbered with the same tag, so their
// messages crosstalk on the shared (sender, tag) envelope. rawtag must catch
// both call sites — proving the lint would have caught the original bug at
// `make check` time instead of in a flaky integration test.
package regress

import "embrace/internal/comm"

const magicGatherTag = 9999

func collectFinalState(t comm.Transport, shard, stats []float32) error {
	// Both gathers reuse magicGatherTag — rank 0 can receive a stats
	// payload while assembling the embedding table.
	if err := t.Send(0, magicGatherTag, shard); err != nil { // want `raw Transport\.Send with a hand-numbered tag literal`
		return err
	}
	return t.Send(0, magicGatherTag, stats) // want `raw Transport\.Send with a hand-numbered tag literal`
}
