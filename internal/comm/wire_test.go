package comm

import (
	"bytes"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// wireCases are payloads of every frame kind with the values a lossy wire
// would get wrong: NaN payloads, signed zeros, infinities, nil against empty
// slices, ragged and empty rows, empty and 0-d shapes, negative counts.
func wireCases() []struct {
	name    string
	payload any
} {
	f32 := func(bits ...uint32) []float32 {
		out := make([]float32, len(bits))
		for i, b := range bits {
			out[i] = math.Float32frombits(b)
		}
		return out
	}
	return []struct {
		name    string
		payload any
	}{
		{"f32 specials", f32(0x7f800001, 0xff800001, 0x7fc00000, 0xffc12345, 0x7f800000, 0xff800000, 0, 0x80000000, 1, 0x3fc00000)},
		{"f32 nil", []float32(nil)},
		{"f32 empty", []float32{}},
		{"i64", []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}},
		{"i64 nil", []int64(nil)},
		{"i64 empty", []int64{}},
		{"rows ragged", [][]int64{{1, 2, 3}, {}, nil, {math.MinInt64}}},
		{"rows nil", [][]int64(nil)},
		{"rows empty", [][]int64{}},
		{"bytes", []byte{0, 1, 0xff}},
		{"bytes nil", []byte(nil)},
		{"bytes empty", []byte{}},
		{"int", math.MinInt64},
		{"int zero", 0},
		{"empty struct", struct{}{}},
		{"dense specials", dense(f32(0x7f800001, 0xffc12345, 0x80000000, 0x7f800000, 1, 0x3fc00000), 2, 3)},
		{"dense 0-d", dense(f32(0xffc00001))},
		{"dense empty", tensor.NewDense(0)},
		{"dense empty rows", tensor.NewDense(3, 0)},
		{"dense nil data", dense(nil, 0, 4)},
		{"stats NaN loss", nn.StepStats{Loss: math.Float64frombits(0x7ff8dead0000beef), Correct: 3, Count: 7}},
		{"stats negative counts", nn.StepStats{Loss: math.Copysign(0, -1), Correct: math.MinInt64, Count: -1}},
	}
}

// dense wraps data in a tensor of the given shape.
func dense(data []float32, shape ...int) *tensor.Dense {
	d, err := tensor.FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return d
}

// sameBits reports whether a and b have the same dynamic type and the same
// bits: floats compare by their bits, and nil and empty slices differ.
func sameBits(a, b any) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case SeqFrame:
		y := b.(SeqFrame)
		return x.Seq == y.Seq && x.Step == y.Step && sameBits(x.Payload, y.Payload)
	case []float32:
		y := b.([]float32)
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	case *tensor.Dense:
		y := b.(*tensor.Dense)
		return slices.Equal(x.Shape(), y.Shape()) && sameBits(x.Data(), y.Data())
	case nn.StepStats:
		y := b.(nn.StepStats)
		return math.Float64bits(x.Loss) == math.Float64bits(y.Loss) && x.Correct == y.Correct && x.Count == y.Count
	}
	return reflect.DeepEqual(a, b)
}

// Every frame kind, bare and inside a SeqFrame, arrives over TCP with the
// bits the in-process fabric hands over.
func TestTCPWireMatchesMailbox(t *testing.T) {
	tcp, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	mail, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mail.Close()

	var payloads []any
	var names []string
	for _, c := range wireCases() {
		payloads = append(payloads, c.payload, SeqFrame{Seq: math.MaxInt64, Step: math.MinInt64, Payload: c.payload})
		names = append(names, c.name, "seq "+c.name)
	}
	for i, p := range payloads {
		tag := 100 + i
		var got [2]any
		for j, w := range []interface{ Rank(int) Transport }{mail, tcp} {
			if err := w.Rank(0).Send(1, tag, p); err != nil {
				t.Fatalf("%s: send: %v", names[i], err)
			}
			if got[j], err = w.Rank(1).Recv(0, tag); err != nil {
				t.Fatalf("%s: recv: %v", names[i], err)
			}
		}
		if !sameBits(got[0], got[1]) {
			t.Errorf("%s: mailbox delivered %#v, TCP %#v", names[i], got[0], got[1])
		}
	}
}

// A payload outside the wire's set fails at Send with ErrPayloadType on
// every fabric, so none of them carries what another cannot.
func TestSendRejectsPayloadOutsideTheSet(t *testing.T) {
	mail, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mail.Close()
	chaos, err := NewChaosWorld(2, MaskableChaosPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	tcp, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	fabrics := []struct {
		name string
		w    interface{ Rank(int) Transport }
	}{{"mailbox", mail}, {"chaos", chaos}, {"tcp", tcp}}
	for _, p := range []any{
		int64(7), 1.5, "ctl", nil, struct{ N int }{3},
		(*tensor.Dense)(nil), []int{1}, SeqFrame{Payload: "ctl"},
	} {
		for _, f := range fabrics {
			for _, to := range []int{0, 1} {
				if err := f.w.Rank(0).Send(to, 1, p); !errors.Is(err, ErrPayloadType) {
					t.Errorf("%s: send %T to rank %d: err = %v, want ErrPayloadType", f.name, p, to, err)
				}
			}
		}
	}
}

func TestTCPSendRejectsNestedSeqFrame(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nested := SeqFrame{Payload: SeqFrame{Payload: []float32{1}}}
	if err := w.Rank(0).Send(1, 1, nested); !errors.Is(err, errNestedSeq) {
		t.Fatalf("err = %v, want errNestedSeq", err)
	}
	// The connection is still in step: the next frame arrives whole.
	if err := w.Rank(0).Send(1, 1, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Rank(1).Recv(0, 1); err != nil || v != 9 {
		t.Fatalf("got %v, %v", v, err)
	}
}

// encodeFrame returns the bytes of one frame as a fresh connection would
// send them.
func encodeFrame(t testing.TB, tag int, payload any) []byte {
	t.Helper()
	var e frameEncoder
	if err := e.frame(tag, payload); err != nil {
		t.Fatal(err)
	}
	return e.buf
}

// A peer that sends bytes no frame can be made of is marked down at once:
// its receivers fail with ErrPeerDown instead of waiting for a timeout, and
// the rest of the mesh keeps working.
func TestTCPReaderFailureMarksPeerDown(t *testing.T) {
	oversize := append(le.AppendUint64(nil, 5), kindF32)
	oversize = le.AppendUint64(oversize, 1<<40)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"unknown kind", append(le.AppendUint64(nil, 5), 0xee)},
		{"oversize length", oversize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Ranks 1 and 2 are real nodes; rank 0 is a raw socket that
			// dials them and speaks the handshake, as a real rank 0 would.
			addrs := []string{"rank 0 is never dialed", "", ""}
			listeners := make([]net.Listener, 3)
			for i := 1; i < 3; i++ {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				listeners[i], addrs[i] = l, l.Addr().String()
			}
			nodes := make([]*TCPNode, 3)
			errs := make([]error, 3)
			var wg sync.WaitGroup
			for i := 1; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					nodes[i], errs[i] = NewTCPNodeFromListener(i, listeners[i], addrs)
				}()
			}
			raw := make([]net.Conn, 3)
			for i := 1; i < 3; i++ {
				c, err := net.Dial("tcp", addrs[i])
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Write(encodeFrame(t, helloTag, 0)); err != nil {
					t.Fatal(err)
				}
				raw[i] = c
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			defer nodes[1].Close()
			defer nodes[2].Close()

			if _, err := raw[1].Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := nodes[1].Recv(0, 5)
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrPeerDown) {
					t.Fatalf("recv from the bad peer: err = %v, want ErrPeerDown", err)
				}
			case <-time.After(time.Second):
				t.Fatal("recv from the bad peer still blocked after 1s")
			}

			if err := nodes[1].Send(2, 1, 42); err != nil {
				t.Fatal(err)
			}
			if v, err := nodes[2].Recv(1, 1); err != nil || v != 42 {
				t.Fatalf("link 1-2: got %v, %v", v, err)
			}
			if _, err := raw[2].Write(encodeFrame(t, 3, []int64{7})); err != nil {
				t.Fatal(err)
			}
			if v, err := nodes[2].Recv(0, 3); err != nil || !sameBits(v, []int64{7}) {
				t.Fatalf("link 0-2: got %v, %v", v, err)
			}
		})
	}
}

// Heap bounds of FuzzReadFrame: reading one frame may allocate a constant
// plus fuzzAllocPerByte bytes per input byte.
const (
	fuzzAllocBase    = 64 << 10
	fuzzAllocPerByte = 8
)

// FuzzReadFrame feeds the frame reader bytes it did not write. The seed
// corpus in testdata/fuzz/FuzzReadFrame holds a valid frame of every kind,
// truncations of them, unknown kinds (the retired gob kind 8 among them,
// with the gob-era frames), nested SeqFrames, 2^40 lengths, and dense frames
// whose shape wraps, goes negative or does not match the data. Reading must
// never panic; a frame read without error must re-encode to exactly the
// bytes read; and the heap may grow by at most a constant plus a multiple of
// the input length.
//
// Run it with: go test ./internal/comm -run '^$' -fuzz FuzzReadFrame -fuzztime 20s
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		fr := newFrameReader(in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tag, payload, err := fr.frame()
		runtime.ReadMemStats(&after)

		limit := uint64(fuzzAllocBase + fuzzAllocPerByte*len(data))
		if grown := after.TotalAlloc - before.TotalAlloc; grown > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), grown, limit)
		}
		if err != nil {
			return
		}
		read := data[:len(data)-fr.r.Buffered()-in.Len()]
		if enc := encodeFrame(t, tag, payload); !bytes.Equal(enc, read) {
			t.Fatalf("frame %x re-encodes to %x", read, enc)
		}
	})
}

// BenchmarkTCPRoundTrip bounces a []float32 between the two ranks of a
// loopback TCP world: the cost of one frame each way, encode, socket and
// decode.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64B", 64}, {"64KB", 64 << 10}, {"1MB", 1 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			w, err := NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(2 * size.bytes))
			benchPingPong(b, w.Rank(0), w.Rank(1), make([]float32, size.bytes/4))
		})
	}
}
