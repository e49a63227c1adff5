package comm

import (
	"bytes"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wireProbe is a payload of a type comm has no frame kind for, so it takes
// the gob kind.
type wireProbe struct {
	Name string
	Vals []float64
	N    int32
}

func init() { RegisterWireType(wireProbe{}) }

// wireCases are payloads of every frame kind with the values a lossy wire
// would get wrong: NaN payloads, signed zeros, infinities, nil against empty
// slices, ragged and empty rows.
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
		{"gob struct", wireProbe{Name: "p", Vals: []float64{1.5, math.Inf(-1)}, N: -3}},
		{"gob string", "other-tag"},
		{"gob nil", nil},
	}
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
	e := newFrameEncoder()
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
// plus fuzzAllocPerByte bytes per input byte. A gob body may also cost up to
// the 10 MB encoding/gob allocates ahead for a declared slice before the
// bytes behind it run out, so gob frames get a larger constant.
const (
	fuzzAllocBase    = 64 << 10
	fuzzAllocBaseGob = 16 << 20
	fuzzAllocPerByte = 8
)

// FuzzReadFrame feeds the frame reader bytes it did not write. The seed
// corpus in testdata/fuzz/FuzzReadFrame holds a valid frame of every kind,
// truncations of them, unknown kinds, nested SeqFrames and 2^40 lengths.
// Reading must never panic; a frame read without error must re-encode to
// exactly the bytes read (gob bodies, whose encoding is not unique, must
// reach a fixed point instead); and the heap may grow by at most a constant
// plus a multiple of the input length.
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

		// The kind sits after the 8-byte tag; a SeqFrame's inner kind after
		// its kind byte, seq and step.
		kindAt := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		isGob := kindAt(8) == kindGob || (kindAt(8) == kindSeq && kindAt(25) == kindGob)
		limit := uint64(fuzzAllocBase + fuzzAllocPerByte*len(data))
		if isGob {
			limit += fuzzAllocBaseGob
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), grown, limit)
		}
		if err != nil {
			return
		}

		enc := encodeFrame(t, tag, payload)
		if !isGob {
			read := data[:len(data)-fr.r.Buffered()-in.Len()]
			if !bytes.Equal(enc, read) {
				t.Fatalf("frame %x re-encodes to %x", read, enc)
			}
			return
		}
		tag2, payload2, err := newFrameReader(bytes.NewReader(enc)).frame()
		if err != nil {
			t.Fatalf("re-encoded gob frame %x does not read: %v", enc, err)
		}
		if enc2 := encodeFrame(t, tag2, payload2); !bytes.Equal(enc, enc2) {
			t.Fatalf("gob frame re-encodes to %x, then to %x", enc, enc2)
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
