package comm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// drainStream receives until `want` distinct payload values (ints 0..want-1)
// have arrived, tolerating duplicates, and returns the arrival order of the
// first copy of each value.
func drainStream(t *testing.T, tr Transport, from, tag, want int) []int {
	t.Helper()
	seen := make(map[int]bool)
	var order []int
	for len(seen) < want {
		payload, err := tr.Recv(from, tag)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		v, ok := payload.(int)
		if !ok {
			t.Fatalf("payload %T", payload)
		}
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	return order
}

// chaosRun pushes n messages 0->1 under the plan, retrying transient
// failures, and returns (send-failure indices, first-copy arrival order).
func chaosRun(t *testing.T, plan FaultPlan, n int) (fails []int, order []int) {
	t.Helper()
	cw, err := NewChaosWorld(2, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	done := make(chan []int, 1)
	go func() { done <- drainStream(t, cw.Rank(1), 0, 7, n) }()
	s := cw.Rank(0)
	for i := 0; i < n; i++ {
		for {
			err := s.Send(1, 7, i)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTransient) {
				t.Errorf("send %d: %v", i, err)
				return nil, nil
			}
			fails = append(fails, i)
		}
	}
	select {
	case order = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("receiver hung")
	}
	return fails, order
}

func TestChaosEmptyPlanIsTransparent(t *testing.T) {
	fails, order := chaosRun(t, FaultPlan{Seed: 1}, 50)
	if len(fails) != 0 {
		t.Fatalf("empty plan injected %d failures", len(fails))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("empty plan reordered: %v", order)
		}
	}
}

func TestChaosSameSeedSameFaults(t *testing.T) {
	plan := MaskableChaosPlan(42)
	f1, o1 := chaosRun(t, plan, 300)
	f2, o2 := chaosRun(t, plan, 300)
	if fmt.Sprint(f1) != fmt.Sprint(f2) {
		t.Fatalf("same seed, different transient failures:\n%v\n%v", f1, f2)
	}
	// Reordering involves real timers, so arrival order of delayed messages
	// can race; the *injected* decisions are what must replay. Compare the
	// failure schedule (above) and that both runs delivered everything.
	if len(o1) != 300 || len(o2) != 300 {
		t.Fatalf("lost messages: %d %d", len(o1), len(o2))
	}
	if len(f1) == 0 {
		t.Fatal("maskable plan injected no transient failures over 300 sends")
	}
}

func TestChaosDifferentSeedDifferentFaults(t *testing.T) {
	f1, _ := chaosRun(t, MaskableChaosPlan(1), 300)
	f2, _ := chaosRun(t, MaskableChaosPlan(2), 300)
	if fmt.Sprint(f1) == fmt.Sprint(f2) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestChaosTransientBurstBounded(t *testing.T) {
	// Rate-1 transient rule: every eligible send fails, but the grace send
	// after each burst must pass, so consecutive failures stay <= MaxBurst
	// and a bounded retry loop always gets through.
	plan := FaultPlan{Seed: 5, Rules: []FaultRule{Rule(FaultTransientSend, 1)}}
	cw, err := NewChaosWorld(2, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	s := cw.Rank(0)
	for i := 0; i < 50; i++ {
		attempts := 0
		for {
			attempts++
			if err := s.Send(1, 3, i); err == nil {
				break
			} else if !errors.Is(err, ErrTransient) {
				t.Fatal(err)
			}
			if attempts > DefaultMaxBurst+1 {
				t.Fatalf("message %d still failing after %d attempts", i, attempts)
			}
		}
	}
	if _, err := cw.Rank(1).Recv(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestChaosPartitionIsTypedAndTargeted(t *testing.T) {
	r := Rule(FaultPartition, 1)
	r.From, r.To = 0, 1
	cw, err := NewChaosWorld(3, FaultPlan{Seed: 9, Rules: []FaultRule{r}})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	if err := cw.Rank(0).Send(1, 1, 1); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("partitioned send err = %v, want ErrPeerDown", err)
	}
	if err := cw.Rank(0).Send(2, 1, 1); err != nil {
		t.Fatalf("unpartitioned link failed: %v", err)
	}
	if err := cw.Rank(1).Send(0, 1, 1); err != nil {
		t.Fatalf("reverse direction failed: %v", err)
	}
	if got := cw.Injected()[FaultPartition.String()]; got != 1 {
		t.Fatalf("injected[partition] = %d, want 1", got)
	}
}

func TestChaosCrashKillsRankAndUnblocksPeers(t *testing.T) {
	// Rank 2 crashes on its 3rd send to rank 0. Its later operations fail,
	// and a peer blocked receiving from it is woken with ErrPeerDown
	// naming the crashed rank — no timeout needed.
	r := Rule(FaultCrash, 1)
	r.From = 2
	r.Match = func(pt FaultPoint) bool { return pt.Index >= 2 }
	cw, err := NewChaosWorld(3, FaultPlan{Seed: 3, Rules: []FaultRule{r}})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()

	blocked := make(chan error, 1)
	go func() {
		_, err := cw.Rank(0).Recv(2, 99) // never satisfied: rank 2 dies first
		blocked <- err
	}()

	s := cw.Rank(2)
	for i := 0; i < 2; i++ {
		if err := s.Send(0, 1, i); err != nil {
			t.Fatalf("pre-crash send %d: %v", i, err)
		}
	}
	if err := s.Send(0, 1, 2); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("crashing send err = %v, want ErrPeerDown", err)
	}
	if err := s.Send(1, 1, 3); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("post-crash send err = %v, want ErrPeerDown", err)
	}
	if _, err := s.Recv(0, 1); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("post-crash recv err = %v, want ErrPeerDown", err)
	}

	select {
	case err := <-blocked:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("blocked peer err = %v, want ErrPeerDown", err)
		}
		if want := "rank 2"; !contains(err.Error(), want) {
			t.Fatalf("error %q does not attribute %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer stayed blocked after crash")
	}

	// Pre-crash messages must still be drainable: death never eats
	// already-delivered traffic.
	for i := 0; i < 2; i++ {
		v, err := cw.Rank(0).Recv(2, 1)
		if err != nil || v != i {
			t.Fatalf("pre-crash message %d: %v %v", i, v, err)
		}
	}
}

func TestChaosRecvTimeout(t *testing.T) {
	cw, err := NewChaosWorld(2, FaultPlan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	cw.SetRecvTimeout(30 * time.Millisecond)
	_, err = cw.Rank(0).Recv(1, 5)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestChaosPlanValidation(t *testing.T) {
	bad := []FaultPlan{
		{Rules: []FaultRule{{Kind: FaultKind(99), From: AnyRank, To: AnyRank}}},
		{Rules: []FaultRule{{Kind: FaultDelay, Rate: -0.5, From: AnyRank, To: AnyRank}}},
		{Rules: []FaultRule{{Kind: FaultDelay, From: 7, To: AnyRank}}},
	}
	for i, p := range bad {
		if _, err := NewChaosWorld(2, p); err == nil {
			t.Fatalf("plan %d: expected validation error", i)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
