package metrics

import (
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// PayloadSize sizes the wire's payload set; control values and payloads
// outside the set (which no fabric carries) count zero.
func TestPayloadSize(t *testing.T) {
	d := tensor.NewDense(3, 2)
	s, _ := tensor.NewSparse(10, 2, []int64{1, 2}, make([]float32, 4))
	cases := []struct {
		payload any
		want    int64
	}{
		{[]float32{1, 2, 3}, 12},
		{d, 24},
		{[]int64{1, 2}, 16},
		{[][]int64{{1}, {2, 3}}, 24},
		{[]byte{1, 2, 3}, 3},
		{nn.StepStats{}, 24},
		{comm.SeqFrame{Seq: 9, Payload: d}, 24},
		{42, 0},
		{struct{}{}, 0},
		{"control", 0},
		{s, 0},
		{[]*tensor.Dense{d, d}, 0},
	}
	for i, c := range cases {
		if got := PayloadSize(c.payload); got != c.want {
			t.Errorf("case %d: PayloadSize = %d, want %d", i, got, c.want)
		}
	}
}

func TestTransportCountsTraffic(t *testing.T) {
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m0 := Wrap(w.Rank(0))
	m1 := Wrap(w.Rank(1))
	if m0.Rank() != 0 || m0.Size() != 2 {
		t.Fatal("wrapper must forward rank/size")
	}
	go func() {
		_ = m0.Send(1, 1, []float32{1, 2, 3, 4})
		_ = m0.Send(1, 1, []float32{5})
	}()
	for i := 0; i < 2; i++ {
		if _, err := m1.Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := m0.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.PayloadBytes != 20 {
		t.Fatalf("payload = %d", st.PayloadBytes)
	}
	if m1.Stats().RecvSeconds <= 0 {
		t.Fatal("recv time not recorded")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SendSeconds: 1, RecvSeconds: 2, Messages: 3, PayloadBytes: 4}
	b := Stats{SendSeconds: 10, RecvSeconds: 20, Messages: 30, PayloadBytes: 40}
	sum := a.Add(b)
	if sum.SendSeconds != 11 || sum.RecvSeconds != 22 || sum.Messages != 33 || sum.PayloadBytes != 44 {
		t.Fatalf("sum = %+v", sum)
	}
}

func TestCollectivesThroughWrappedTransport(t *testing.T) {
	// The wrapper must be drop-in for real collectives, and the measured
	// traffic of a ring allreduce must match its 2(N-1)/N * M law.
	const n, m = 4, 1000
	totals := make([]int64, n)
	err := comm.RunRanks(n, func(raw comm.Transport) error {
		tr := Wrap(raw)
		buf := make([]float32, m)
		if err := collective.NewCommunicator(tr).AllReduce("test/allreduce", 0, buf); err != nil {
			return err
		}
		totals[tr.Rank()] = tr.Stats().PayloadBytes
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank sends 2(N-1) chunks of ~M/N elements.
	want := int64(2 * (n - 1) * (m / n) * tensor.BytesPerElem)
	for r, got := range totals {
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("rank %d sent %d bytes, want ~%d", r, got, want)
		}
	}
}

func TestOpRecorderAttributesTrafficPerOp(t *testing.T) {
	// OpRecorder must satisfy collective.Observer structurally.
	var _ collective.Observer = NewOpRecorder()

	const n, m = 4, 1000
	recs := make([]*OpRecorder, n)
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		rec := NewOpRecorder()
		recs[tr.Rank()] = rec
		c := collective.NewCommunicator(tr, collective.WithObserver(rec))
		if err := c.AllReduce("dense/w1", 0, make([]float32, m)); err != nil {
			return err
		}
		s, err := tensor.NewSparse(8, 2, []int64{1}, make([]float32, 2))
		if err != nil {
			return err
		}
		_, err = c.SparseAllGather("emb/grad", 0, s)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rec := range recs {
		per := rec.PerOp()
		if len(per) != 2 {
			t.Fatalf("rank %d recorded ops %v, want 2", r, per)
		}
		dense := per["dense/w1"]
		// Ring allreduce: 2(N-1) sends of ~M/N elements per rank.
		wantMsgs := int64(2 * (n - 1))
		if dense.Messages != wantMsgs {
			t.Fatalf("rank %d dense messages = %d, want %d", r, dense.Messages, wantMsgs)
		}
		wantBytes := int64(2 * (n - 1) * (m / n) * tensor.BytesPerElem)
		if dense.PayloadBytes < wantBytes*9/10 || dense.PayloadBytes > wantBytes*11/10 {
			t.Fatalf("rank %d dense bytes = %d, want ~%d", r, dense.PayloadBytes, wantBytes)
		}
		// Per peer, one [rows, dim, index] header and one value frame.
		sparse := per["emb/grad"]
		if sparse.Messages != 2*(n-1) || sparse.PayloadBytes != (3*8+2*4)*(n-1) {
			t.Fatalf("rank %d sparse traffic = %d messages / %d bytes, want %d / %d",
				r, sparse.Messages, sparse.PayloadBytes, 2*(n-1), (3*8+2*4)*(n-1))
		}
		total := rec.Total()
		if total.Messages != dense.Messages+sparse.Messages {
			t.Fatalf("rank %d total messages %d != sum of per-op", r, total.Messages)
		}
		if total.PayloadBytes != dense.PayloadBytes+sparse.PayloadBytes {
			t.Fatalf("rank %d total bytes %d != sum of per-op", r, total.PayloadBytes)
		}
	}
}

func TestOpStatsAdd(t *testing.T) {
	a := OpStats{Messages: 1, PayloadBytes: 2, SendSeconds: 3, RecvSeconds: 4}
	b := OpStats{Messages: 10, PayloadBytes: 20, SendSeconds: 30, RecvSeconds: 40}
	sum := a.Add(b)
	if sum.Messages != 11 || sum.PayloadBytes != 22 || sum.SendSeconds != 33 || sum.RecvSeconds != 44 {
		t.Fatalf("sum = %+v", sum)
	}
}
