package comm

import "testing"

// benchPingPong times b.N round-trips (2 sends + 2 receives each) of payload
// between t0 and t1, which t1 echoes back.
func benchPingPong(b *testing.B, t0, t1 Transport, payload any) {
	b.Helper()
	b.ReportAllocs()
	done := make(chan error, 1)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			v, err := t1.Recv(0, 1)
			if err != nil {
				done <- err
				return
			}
			if err := t1.Send(0, 1, v); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := t0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := t0.Recv(1, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// benchChaosPingPong ping-pongs between two ranks of a fresh in-process
// world, each endpoint passed through wrap. Comparing the wrapped and bare
// variants isolates the per-operation cost of the chaos layer's empty-plan
// fast path.
func benchChaosPingPong(b *testing.B, wrap func(t Transport) Transport) {
	w, err := NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	benchPingPong(b, wrap(w.Rank(0)), wrap(w.Rank(1)), 7)
}

// BenchmarkChaosOverheadBare is the baseline: an unwrapped in-process world.
func BenchmarkChaosOverheadBare(b *testing.B) {
	benchChaosPingPong(b, func(t Transport) Transport { return t })
}

// BenchmarkChaosOverheadEmptyPlan wraps both endpoints with a chaos
// transport carrying no rules — the cost every non-chaos user of a wrapped
// fabric would pay. ns/op minus the bare baseline, divided by 4 (two sends,
// two receives per round-trip), is the per-operation wrapper tax recorded in
// EXPERIMENTS.md.
func BenchmarkChaosOverheadEmptyPlan(b *testing.B) {
	benchChaosPingPong(b, func(t Transport) Transport {
		return WrapChaos(t, FaultPlan{Seed: 1})
	})
}
