package serve

import (
	"context"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/nn"
)

// TestServingUnderChaos wraps the serving fabric in the maskable chaos plan
// (delays, duplicates, reorders, transient send failures) and proves every
// response stays bit-identical to the fault-free reference: the Communicator
// self-heals faults below the serving protocol, so clients cannot tell a
// lossy fabric from a clean one.
func TestServingUnderChaos(t *testing.T) {
	m := nn.NewModel(21, testVocab, testDim, testHid)
	ref := reference{m}
	ck := ckptOf(m, 1)

	anyInjected := false
	for _, seed := range []int64{1, 2, 3} {
		for _, part := range []string{PartRowHash, PartColumn} {
			plan := comm.MaskableChaosPlan(seed)
			c, err := New(ck, Config{
				Ranks:       4,
				Partition:   part,
				CacheRows:   0, // cache off: every request exercises the fabric
				MaxBatch:    4,
				BatchWindow: 200 * time.Microsecond,
				Chaos:       &plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ids := range requestSet() {
				got, err := c.Lookup(context.Background(), ids)
				if err != nil {
					t.Fatalf("seed %d %s: lookup %v: %v", seed, part, ids, err)
				}
				if !rowsEqual(got, ref.lookup(ids)) {
					t.Fatalf("seed %d %s: lookup %v diverged under chaos", seed, part, ids)
				}
				tok, prob, err := c.Predict(context.Background(), ids)
				if err != nil {
					t.Fatalf("seed %d %s: predict %v: %v", seed, part, ids, err)
				}
				wantTok, wantProb := ref.predict(ids)
				if tok != wantTok || prob != wantProb {
					t.Fatalf("seed %d %s: predict %v diverged under chaos", seed, part, ids)
				}
			}
			if err := c.Err(); err != nil {
				t.Fatalf("seed %d %s: cluster error: %v", seed, part, err)
			}
			inj := c.FaultsInjected()
			for _, n := range inj {
				if n > 0 {
					anyInjected = true
				}
			}
			c.Close()
		}
	}
	if !anyInjected {
		t.Fatal("no faults were injected across any seed — the chaos plans exercised nothing")
	}
}

// TestServingUnderChaosWithCacheAndReload runs the full production path —
// cache on, concurrent load, a reload mid-run — over the chaotic fabric.
func TestServingUnderChaosWithCacheAndReload(t *testing.T) {
	mA := nn.NewModel(22, testVocab, testDim, testHid)
	mB := nn.NewModel(23, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}

	plan := comm.MaskableChaosPlan(9)
	c, err := New(ckptOf(mA, 1), Config{
		Ranks:       4,
		Partition:   PartRowHash,
		CacheRows:   16,
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
		Chaos:       &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, ids := range requestSet() {
		got, err := c.Lookup(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got, refA.lookup(ids)) {
			t.Fatalf("chaos+cache: lookup %v diverged", ids)
		}
	}
	if err := c.Reload(ckptOf(mB, 2)); err != nil {
		t.Fatalf("reload under chaos: %v", err)
	}
	for _, ids := range requestSet() {
		got, err := c.Lookup(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(got, refB.lookup(ids)) {
			t.Fatalf("chaos post-reload: lookup %v served stale data", ids)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster error: %v", err)
	}
}
