package collective

import (
	"fmt"
	"math/rand"
	"testing"

	"embrace/internal/comm"
)

// raggedBlocks returns rank r's blocks for an n-rank world: lengths that
// cover an empty block, blocks shorter than the world (some ring chunks are
// empty), lengths that do not divide by n, and blocks far longer than the
// chunked Communicators' segments. Magnitudes span ten binades so a sum taken
// in any other rank order rounds differently.
func raggedBlocks(seed int64, r, n int) [][]float32 {
	lens := []int{0, 1, n - 1, 5, 23, 64, 257}
	rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
	blocks := make([][]float32, len(lens))
	for b, m := range lens {
		blocks[b] = make([]float32, m)
		for i := range blocks[b] {
			blocks[b][i] = (rng.Float32() - 0.5) * float32(int(1)<<rng.Intn(10))
		}
	}
	return blocks
}

func cloneBlocks(blocks [][]float32) [][]float32 {
	out := make([][]float32, len(blocks))
	for b := range blocks {
		out[b] = append([]float32(nil), blocks[b]...)
	}
	return out
}

// runAllReduceBlocksEquivalence asserts, on every rank of an n-rank world,
// that one AllReduceBlocks over k blocks leaves each block bit-identical to
// k separate AllReduce calls — unchunked, with segments that straddle block
// boundaries (2 elements), and with segments longer than most blocks (16).
func runAllReduceBlocksEquivalence(t *testing.T, n int, seed int64, run func(int, func(comm.Transport) error) error) {
	t.Helper()
	err := run(n, func(tr comm.Transport) error {
		for _, chunkBytes := range []int{0, 8, 64} {
			cm := NewCommunicator(tr, WithChunkBytes(chunkBytes))
			blocks := raggedBlocks(seed, tr.Rank(), n)
			want := cloneBlocks(blocks)
			for b := range want {
				if err := cm.AllReduce(fmt.Sprintf("blocks/one-%d-%d", chunkBytes, b), 0, want[b]); err != nil {
					return err
				}
			}
			if err := cm.AllReduceBlocks(fmt.Sprintf("blocks/all-%d", chunkBytes), 0, blocks...); err != nil {
				return err
			}
			for b := range want {
				if !bitsEqual(want[b], blocks[b]) {
					return fmt.Errorf("rank %d chunk %dB: block %d (len %d) differs from its own AllReduce",
						tr.Rank(), chunkBytes, b, len(want[b]))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("n=%d seed %d: %v", n, seed, err)
	}
}

func TestAllReduceBlocksMatchesPerBlockAllReduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			runAllReduceBlocksEquivalence(t, n, seed, comm.RunRanks)
		}
	}
}

func TestAllReduceBlocksUnderMaskableChaos(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, seed := range chaosSeeds(5) {
			run := func(n int, fn func(comm.Transport) error) error {
				return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
			}
			runAllReduceBlocksEquivalence(t, n, seed, run)
		}
	}
}

func TestAllReduceBlocksOverTCP(t *testing.T) {
	runAllReduceBlocksEquivalence(t, 4, 77, comm.RunRanksTCP)
}

// The point of the fused pass: k blocks cost the 2(N-1) sends of one.
func TestAllReduceBlocksSendsOneMessagePerHop(t *testing.T) {
	const n = 4
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		obs := &byteCountObserver{}
		cm := NewCommunicator(tr, WithObserver(obs))
		blocks := raggedBlocks(1, tr.Rank(), n)
		if err := cm.AllReduceBlocks("blocks/hops", 0, blocks...); err != nil {
			return err
		}
		// Ring AllReduce moves 2(N-1)/N of every block per rank, fused or not.
		lo, hi := 0, 0
		for _, b := range blocks {
			lo += 2 * (n - 1) * (len(b) / n)
			hi += 2 * (n - 1) * ((len(b) + n - 1) / n)
		}
		obs.mu.Lock()
		defer obs.mu.Unlock()
		if obs.sentMsgs != 2*(n-1) {
			return fmt.Errorf("rank %d: %d sends for %d blocks, want %d", tr.Rank(), obs.sentMsgs, len(blocks), 2*(n-1))
		}
		if obs.sentVals < lo || obs.sentVals > hi {
			return fmt.Errorf("rank %d: sent %d elements, want within [%d, %d]", tr.Rank(), obs.sentVals, lo, hi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
