// Package a exercises commdiverge: divergent schedules under every flavor
// of rank taint, and the symmetric patterns that must stay silent.
package a

import "embrace/internal/collective"

// symmetric issues the same collective on both arms — silent.
func symmetric(cm *collective.Communicator, buf []float32) {
	if cm.Rank() == 0 {
		_ = cm.AllReduce("grad", 1, buf)
	} else {
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// missingSibling runs a collective on one arm only.
func missingSibling(cm *collective.Communicator, buf []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// opMismatch agrees on the method but not the op literal.
func opMismatch(cm *collective.Communicator, buf []float32) {
	if cm.Rank() == 0 { // want `different op/step identity`
		_ = cm.AllReduce("grad", 1, buf)
	} else {
		_ = cm.AllReduce("loss", 1, buf)
	}
}

// stepMismatch agrees on op but not step.
func stepMismatch(cm *collective.Communicator, buf []float32) {
	if cm.Rank() == 0 { // want `different op/step identity`
		_ = cm.AllReduce("grad", 1, buf)
	} else {
		_ = cm.AllReduce("grad", 2, buf)
	}
}

// earlyExit returns before the barrier on every rank but 0.
func earlyExit(cm *collective.Communicator) error {
	if cm.Rank() != 0 { // want `early exit skips`
		return nil
	}
	return cm.Barrier("sync", 3)
}

// earlyExitSymmetric exits after the collective every rank reached — silent.
func earlyExitSymmetric(cm *collective.Communicator) error {
	if err := cm.Barrier("sync", 3); err != nil {
		return err
	}
	if cm.Rank() != 0 {
		return nil
	}
	return nil
}

// viaHelper hides the collective one call deep.
func viaHelper(cm *collective.Communicator, buf []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		gatherAll(cm, buf)
	}
}

func gatherAll(cm *collective.Communicator, buf []float32) {
	_, _ = collective.GatherVia(cm, "stats", 7, 0, buf)
}

// rankParam feeds a rank into a helper's parameter.
func rankParam(cm *collective.Communicator) {
	syncIf(cm, cm.Rank())
}

func syncIf(cm *collective.Communicator, r int) {
	if r == 0 { // want `no matching collective`
		_ = cm.Barrier("join", 1)
	}
}

// node stores its rank at construction; methods branching on the field are
// rank-conditioned.
type node struct {
	cm   *collective.Communicator
	rank int
}

func build(cm *collective.Communicator) *node {
	return &node{cm: cm, rank: cm.Rank()}
}

func (n *node) sync() {
	if n.rank == 0 { // want `no matching collective`
		_ = n.cm.Barrier("roll", 2)
	}
}

// derived reaches the branch through rank arithmetic and a boolean.
func derived(cm *collective.Communicator, buf []float32) {
	leader := (cm.Rank() / 4) * 4
	isLeader := cm.Rank() == leader
	if isLeader { // want `no matching collective`
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// switchRank schedules a collective in one case only; ranks matching no
// case run nothing.
func switchRank(cm *collective.Communicator, buf []float32) {
	switch cm.Rank() { // want `different collectives across cases`
	case 0:
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// switchSymmetric covers every rank with the same schedule — silent.
func switchSymmetric(cm *collective.Communicator, buf []float32) {
	switch cm.Rank() {
	case 0:
		_ = cm.AllReduce("grad", 1, buf)
	default:
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// fusedOnOneArm runs the multi-block ring pass on one arm only: the variadic
// fused AllReduce is a rendezvous like any other.
func fusedOnOneArm(cm *collective.Communicator, w, b []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		_ = cm.AllReduceBlocks("trunk", 1, w, b)
	}
}

// fusedVersusPerBlock sums the same data on both arms, but one fused pass
// and two per-block passes are different schedules on the wire.
func fusedVersusPerBlock(cm *collective.Communicator, w, b []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		_ = cm.AllReduceBlocks("trunk", 1, w, b)
	} else {
		_ = cm.AllReduce("trunk", 1, w)
		_ = cm.AllReduce("trunk", 1, b)
	}
}

// fusedSymmetric issues the same fused pass on both arms — silent.
func fusedSymmetric(cm *collective.Communicator, w, b []float32) {
	if cm.Rank() == 0 {
		_ = cm.AllReduceBlocks("trunk", 1, w, b)
	} else {
		_ = cm.AllReduceBlocks("trunk", 1, b, w)
	}
}

// scatterOnOneArm runs the first half of a split ring pass on one arm only.
func scatterOnOneArm(cm *collective.Communicator, w, b []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		_ = cm.ReduceScatterBlocks("trunk", 1, w, b)
	}
}

// gatherOnOneArm runs the second half of a split ring pass on one arm only.
func gatherOnOneArm(cm *collective.Communicator, w, b []float32) {
	if cm.Rank() == 0 { // want `no matching collective`
		_ = cm.AllGatherBlocks("trunk", 1, w, b)
	}
}

// splitSymmetric issues both halves of a split ring pass on every rank, with
// a rank-local update in between — silent.
func splitSymmetric(cm *collective.Communicator, g, p []float32) {
	_ = cm.ReduceScatterBlocks("trunk", 1, g)
	if cm.Rank() == 0 {
		p[0] -= g[0]
	}
	_ = cm.AllGatherBlocks("trunk", 1, p)
}

// dataConditioned branches on data, not rank — silent.
func dataConditioned(cm *collective.Communicator, buf []float32) {
	if len(buf) > 0 {
		_ = cm.AllReduce("grad", 1, buf)
	}
}

// pointToPoint is inherently asymmetric and exempt — silent.
func pointToPoint(cm *collective.Communicator) {
	if cm.Rank() != 0 {
		_ = cm.Send("ctl", 1, 0, nil)
		return
	}
	_, _ = cm.Recv("ctl", 1, 1)
}
