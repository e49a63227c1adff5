package partition

import (
	"testing"
)

// TestConsistentHashOwnerDeterministic pins the property serving relies on:
// Owner is a pure function of (token, shards) — every rank building a shard
// and every driver routing a request agree on placement with no shared state.
func TestConsistentHashOwnerDeterministic(t *testing.T) {
	ch := ConsistentHash{}
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		for tok := int64(-5); tok < 200; tok++ {
			a := ch.Owner(tok, n)
			b := ch.Owner(tok, n)
			if a != b {
				t.Fatalf("Owner(%d, %d) unstable: %d then %d", tok, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("Owner(%d, %d) = %d outside [0, %d)", tok, n, a, n)
			}
		}
	}
	// Distinct Vnodes settings are distinct rings, not cache collisions.
	coarse := ConsistentHash{Vnodes: 1}
	differ := false
	for tok := int64(0); tok < 1000; tok++ {
		if coarse.Owner(tok, 4) != ch.Owner(tok, 4) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("Vnodes=1 and default rings agree on every token — ring cache is conflating keys")
	}
}

// TestConsistentHashBalance checks the ring spreads a uniform token
// population acceptably: with the default vnode density no shard should own
// more than ~2x its fair share.
func TestConsistentHashBalance(t *testing.T) {
	tokens := make([]int64, 20000)
	for i := range tokens {
		tokens[i] = int64(i)
	}
	for _, n := range []int{2, 4, 8} {
		loads := ConsistentHash{}.ShardLoads(tokens, n)
		if len(loads) != n {
			t.Fatalf("n=%d: got %d loads", n, len(loads))
		}
		fair := float64(len(tokens)) / float64(n)
		var total float64
		for s, l := range loads {
			total += l
			if l > 2*fair {
				t.Errorf("n=%d shard %d owns %.0f tokens, over 2x fair share %.0f", n, s, l, fair)
			}
			if l == 0 {
				t.Errorf("n=%d shard %d owns nothing", n, s)
			}
		}
		if total != float64(len(tokens)) {
			t.Errorf("n=%d: loads sum to %.0f, want %d", n, total, len(tokens))
		}
	}
}

// TestConsistentHashMinimalDisruption is the reason the ring exists: growing
// the shard set moves only the tokens the new shard captures. Modulo hashing
// (RowHash) reshuffles nearly everything on the same resize.
func TestConsistentHashMinimalDisruption(t *testing.T) {
	tokens := make([]int64, 10000)
	for i := range tokens {
		tokens[i] = int64(i * 3)
	}
	ch := ConsistentHash{}
	moved := 0.0
	for _, tok := range tokens {
		if ch.Owner(tok, 4) != ch.Owner(tok, 5) {
			moved++
		}
	}
	moved /= float64(len(tokens))
	// Expected ~1/5; allow generous slack for ring-arc variance.
	if moved > 0.40 {
		t.Errorf("ring 4->5 moved %.1f%% of tokens, want ~20%%", 100*moved)
	}
	if moved == 0 {
		t.Error("ring 4->5 moved nothing — new shard owns no arcs")
	}
	// Tokens that do not move must be the overwhelming majority; contrast
	// with modulo hashing, which keeps only ~1/5 in place.
	kept := 0
	for _, tok := range tokens {
		if (RowHash{}).Owner(tok, 4) == (RowHash{}).Owner(tok, 5) {
			kept++
		}
	}
	modMoved := 1 - float64(kept)/float64(len(tokens))
	if moved >= modMoved {
		t.Errorf("ring moved %.1f%%, modulo moved %.1f%% — ring lost its selling point", 100*moved, 100*modMoved)
	}
}

// TestConsistentHashScheme runs the scheme through Measure like the others,
// so the §4.1.1 imbalance harness covers it too.
func TestConsistentHashScheme(t *testing.T) {
	batch := make([]int64, 512)
	for i := range batch {
		batch[i] = int64(i)
	}
	st, err := Measure(ConsistentHash{}, [][]int64{batch}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "consistent-hash" {
		t.Errorf("scheme name %q", st.Scheme)
	}
	if st.Imbalance < 1 {
		t.Errorf("imbalance %v below 1 — arithmetic broken", st.Imbalance)
	}
}
