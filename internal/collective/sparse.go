package collective

import (
	"fmt"
	"math"
	"time"

	"embrace/internal/tensor"
)

// The sparse AlltoAll of the embedding gradients (§4.1): each peer stream
// opens with one []int64 frame, [rows, dim, indices…] — counts first, then
// the indices, in a buffer drawn from the Communicator's pools — followed
// by the values, or by one encoded payload when a SparseCodec is given (the
// opening frame then carries only [rows, dim]). Every received stream is
// copied or decoded straight into a caller-owned SparseShards arena. The
// arena's backing arrays grow to a high-water mark and are then reused
// forever, so the exchange allocates nothing in steady state.
//
// Streams ride sendRaw/recvRaw, so they inherit the seq-framing, duplicate
// suppression, reorder parking and transient-send retry of every other
// collective — chaos self-healing holds unchanged, which the chaos
// equivalence tests assert.

// RowClass tells a SparseCodec which scheduling class the rows of a shard
// belong to, so dual-level codecs can pick their error bound from the
// prior/delayed split the EmbRace scheduler already maintains (§4.2.2):
// prior rows feed the very next step's lookup and get the tighter bound,
// delayed rows are harvested a step later and tolerate the looser one.
type RowClass uint8

const (
	// RowsWhole marks an unsplit exchange (no scheduler, or serving row
	// fetches). Codecs treat it like RowsPrior: the conservative bound.
	RowsWhole RowClass = iota
	// RowsPrior marks rows of the prefetched next batch, exchanged and
	// applied immediately.
	RowsPrior
	// RowsDelayed marks rows exchanged by the background goroutine and
	// folded in at the next step's start.
	RowsDelayed
)

// SparseCodec compresses one peer shard of a sparse exchange into a wire
// payload and back. It is declared here, next to the exchange that uses it,
// so internal/compress can provide implementations without an import cycle
// (compress imports collective for RowClass) — the same structural-interface
// move that lets trace.Recorder satisfy Observer.
//
// Both methods are append-style and must not allocate in steady state: dst
// and the decode targets come from pooled or arena-backed memory that grows
// to a high-water mark. DecodeShard appends exactly rows indices and
// rows*dim values onto idx and vals and returns the extended slices; it must
// bounds-check src and return an error (never panic) on truncated or
// corrupt payloads.
type SparseCodec interface {
	// Name identifies the codec in logs, benches and config errors.
	Name() string
	// Lossless reports whether decode reproduces every value bit-identically.
	Lossless() bool
	// AppendShard encodes rows of width dim onto dst and returns it.
	AppendShard(dst []byte, idx []int64, vals []float32, dim int, class RowClass) []byte
	// DecodeShard decodes rows of width dim from src, appending onto idx and
	// vals.
	DecodeShard(src []byte, rows, dim int, idx []int64, vals []float32) ([]int64, []float32, error)
}

// SparseShards is the reusable receive arena of AlltoAllSparse. Shards are
// stored back to back in sender order, so when every sender shares one column
// width the arena itself is the concatenation tensor.Concat would have
// produced — Merged() exposes it without copying, and ShardView slices out
// one sender's rows. Senders may also carry different widths (a
// remainder-bearing column partition); ShardView stays exact then, while
// Merged()'s single-dim view is meaningless and must not be used. The arena
// is owned by one exchange call site and must not be shared between
// concurrent exchanges; its contents are valid until the next AlltoAllSparse
// call that fills it.
type SparseShards struct {
	merged tensor.Sparse
	ends   []int   // ends[p] = exclusive row end of sender p's shard
	vends  []int   // vends[p] = exclusive value end of sender p's shard
	dims   []int32 // dims[p] = sender p's column width
}

// Merged returns the concatenation of all received shards in sender order —
// bit-identical to tensor.Concat of the senders' shards. Only meaningful
// when every sender shares the receiver's column width.
//
// aliases: the returned tensor is a view of the arena, valid until the next
// exchange into it.
func (a *SparseShards) Merged() *tensor.Sparse { return &a.merged }

// Senders returns the number of shards held (the world size of the exchange).
func (a *SparseShards) Senders() int { return len(a.ends) }

// ShardView makes dst a view of sender p's rows inside the arena. No data is
// copied; dst shares the arena's backing arrays and is valid until the next
// exchange into the arena.
//
//embrace:hotpath
func (a *SparseShards) ShardView(p int, dst *tensor.Sparse) {
	lo, vlo := 0, 0
	if p > 0 {
		lo, vlo = a.ends[p-1], a.vends[p-1]
	}
	hi, vhi := a.ends[p], a.vends[p]
	dst.NumRows, dst.Dim = a.merged.NumRows, int(a.dims[p])
	dst.Indices = a.merged.Indices[lo:hi:hi]
	dst.Vals = a.merged.Vals[vlo:vhi:vhi]
}

// reset prepares the arena for an n-sender exchange of numRows-row shards,
// keeping its backing arrays; in test binaries it poisons their old contents
// first, like bufPool.put. dim is the receiver's own width, the default
// for senders until their streams say otherwise.
func (a *SparseShards) reset(n, numRows, dim int) {
	if poisonRecycled {
		fill(a.merged.Indices[:cap(a.merged.Indices)], poisonI64)
		fill(a.merged.Vals[:cap(a.merged.Vals)], poisonF32)
	}
	if cap(a.ends) < n {
		a.ends = make([]int, n)
		a.vends = make([]int, n)
		a.dims = make([]int32, n)
	}
	a.ends = a.ends[:n]
	a.vends = a.vends[:n]
	a.dims = a.dims[:n]
	a.merged.Reset()
	a.merged.NumRows, a.merged.Dim = numRows, dim
}

// appendShard copies one received (or self) stream into the arena.
//
//embrace:hotpath
func (a *SparseShards) appendShard(p int, dim int32, idx []int64, vals []float32) {
	a.merged.Indices = append(a.merged.Indices, idx...)
	a.merged.Vals = append(a.merged.Vals, vals...)
	a.ends[p] = len(a.merged.Indices)
	a.vends[p] = len(a.merged.Vals)
	a.dims[p] = dim
}

// appendDecoded decodes one received wire payload straight onto the arena's
// backing arrays — the codec's decode scratch IS the arena, so the
// compressed path keeps the zero-steady-state-allocation property of the raw
// one.
//
//embrace:hotpath
func (a *SparseShards) appendDecoded(p int, rows int, dim int32, src []byte, codec SparseCodec) error {
	lo, vlo := len(a.merged.Indices), len(a.merged.Vals)
	idx, vals, err := codec.DecodeShard(src, rows, int(dim), a.merged.Indices, a.merged.Vals)
	if err != nil {
		return err
	}
	if len(idx)-lo != rows || len(vals)-vlo != rows*int(dim) {
		return fmt.Errorf("collective: codec %s decoded %d rows, %d values; header %d rows x dim %d",
			codec.Name(), len(idx)-lo, len(vals)-vlo, rows, dim)
	}
	a.merged.Indices = idx
	a.merged.Vals = vals
	a.ends[p] = len(a.merged.Indices)
	a.vends[p] = len(a.merged.Vals)
	a.dims[p] = dim
	return nil
}

// sparseRawBytes is the uncompressed wire footprint of a shard: 8 bytes per
// index, 4 per value — what AlltoAllSparse would have shipped.
func sparseRawBytes(rows, dim int) int { return rows * (8 + 4*dim) }

// AlltoAllSparse routes shard send[p] to rank p and fills arena with the
// received shards in sender order: AlltoAllSparseCodec with no codec, so every
// non-empty peer stream ships as its raw index and value slices. Senders may
// carry different column widths (each stream's header says its own); when
// every sender matches the receiver's width the merged arena is bit-identical
// to tensor.Concat of the senders' shards. Per-sender views come from
// ShardView either way.
//
//embrace:hotpath
func (c *Communicator) AlltoAllSparse(op string, step int, send []*tensor.Sparse, arena *SparseShards) error {
	return c.AlltoAllSparseCodec(op, step, send, arena, nil, RowsWhole)
}

// sparseHeaderError reports a peer stream header no shard can carry: a
// negative row count or width, or more values than an int32 can count. The
// header arrives from the wire, so it is checked before either payload kind
// trusts it.
type sparseHeaderError struct {
	from      int
	rows, dim int64
}

func (e sparseHeaderError) Error() string {
	return fmt.Sprintf("collective: alltoallsparse header from rank %d: %d rows x dim %d", e.from, e.rows, e.dim)
}

// AlltoAllSparseCodec is the one sparse AlltoAll. Every peer stream opens
// with a pooled []int64 header, the row count and width, and — when non-empty
// — carries its shard: with a nil codec the header goes on with the indices
// and a pooled []float32 follows with the values; otherwise one encoded
// []byte payload from the byte pool follows the bare header. Ownership of
// the buffers travels with the message; the receiver recycles them into its
// own pools. Each received shard is copied (raw) or decoded (codec) straight
// into the arena.
//
// The self shard never touches the wire, the observer, the codec or the
// pooled wire buffers: rank r's own rows are copied directly into the arena
// at sender position r (self-send elision), so a lossy codec never quantizes
// them. class tells dual-level codecs which error bound applies to every row
// of this exchange. When the Communicator's observer implements
// CodecObserver, each encoded and decoded shard is reported with its raw vs
// wire footprint and codec latency.
//
//embrace:hotpath
func (c *Communicator) AlltoAllSparseCodec(op string, step int, send []*tensor.Sparse, arena *SparseShards, codec SparseCodec, class RowClass) error {
	n, r := c.t.Size(), c.t.Rank()
	if len(send) != n {
		return fmt.Errorf("collective: alltoallsparse wants %d send parts, got %d", n, len(send))
	}
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	numRows, dim := send[r].NumRows, send[r].Dim

	// Send phase: the header (with the indices on the raw path), then the
	// values or the encoded shard unless the shard is empty.
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		sh := send[p]
		rows := len(sh.Indices)
		var idx []int64
		if codec == nil {
			idx = sh.Indices
		}
		hdr := c.i64.get(2 + len(idx))
		hdr[0], hdr[1] = int64(rows), int64(sh.Dim)
		copy(hdr[2:], idx)
		if err := c.sendRaw(rt, p, hdr); err != nil {
			return fmt.Errorf("alltoallsparse header to %d: %w", p, err)
		}
		if rows == 0 {
			continue
		}
		if codec == nil {
			vbuf := c.f32.get(len(sh.Vals))
			copy(vbuf, sh.Vals)
			if err := c.sendRaw(rt, p, vbuf); err != nil {
				return fmt.Errorf("alltoallsparse values to %d: %w", p, err)
			}
			continue
		}
		var start time.Time
		if c.codecObs != nil {
			start = time.Now()
		}
		wire := codec.AppendShard(c.bytes.room(sparseRawBytes(rows, sh.Dim)), sh.Indices, sh.Vals, sh.Dim, class)
		if c.codecObs != nil {
			c.codecObs.CodecOp(op, "encode", sparseRawBytes(rows, sh.Dim), len(wire), time.Since(start))
		}
		if err := c.sendRaw(rt, p, wire); err != nil {
			return fmt.Errorf("alltoallsparse payload to %d: %w", p, err)
		}
	}

	// Receive phase, in sender order, so the arena is the sender-ordered
	// concatenation. Rank r's own shard is copied in at its position without
	// ever having been packed.
	arena.reset(n, numRows, dim)
	for p := 0; p < n; p++ {
		if p == r {
			arena.appendShard(p, int32(send[r].Dim), send[r].Indices, send[r].Vals)
			continue
		}
		payload, err := c.recvRaw(rt, p)
		if err != nil {
			return fmt.Errorf("alltoallsparse header from %d: %w", p, err)
		}
		hdr, ok := payload.([]int64)
		if !ok || len(hdr) < 2 {
			return fmt.Errorf("collective: alltoallsparse header from rank %d is %T of length %d", p, payload, len(hdr))
		}
		rows, dim, idx := hdr[0], hdr[1], hdr[2:]
		if rows < 0 || dim < 0 || rows > math.MaxInt32 || dim > math.MaxInt32 || rows*dim > math.MaxInt32 {
			return sparseHeaderError{from: p, rows: rows, dim: dim}
		}
		wantIdx := rows // the raw path's header carries the indices
		if codec != nil {
			wantIdx = 0
		}
		if int64(len(idx)) != wantIdx {
			return fmt.Errorf("collective: alltoallsparse header from rank %d: %d indices for %d rows", p, len(idx), rows)
		}
		if rows == 0 {
			arena.appendShard(p, int32(dim), nil, nil)
			c.i64.put(hdr)
			continue
		}
		if codec == nil {
			payload, err = c.recvRaw(rt, p)
			if err != nil {
				return fmt.Errorf("alltoallsparse values from %d: %w", p, err)
			}
			vals, ok := payload.([]float32)
			if !ok {
				return fmt.Errorf("collective: alltoallsparse value type %T from rank %d", payload, p)
			}
			if int64(len(vals)) != rows*dim {
				return fmt.Errorf("collective: alltoallsparse stream from rank %d: %d values, header %d rows x dim %d",
					p, len(vals), rows, dim)
			}
			arena.appendShard(p, int32(dim), idx, vals)
			c.i64.put(hdr)
			c.f32.put(vals)
			continue
		}
		c.i64.put(hdr)
		payload, err = c.recvRaw(rt, p)
		if err != nil {
			return fmt.Errorf("alltoallsparse payload from %d: %w", p, err)
		}
		wire, ok := payload.([]byte)
		if !ok {
			return fmt.Errorf("collective: alltoallsparse payload type %T from rank %d", payload, p)
		}
		var start time.Time
		if c.codecObs != nil {
			start = time.Now()
		}
		if err := arena.appendDecoded(p, int(rows), int32(dim), wire, codec); err != nil {
			return fmt.Errorf("alltoallsparse decode from %d: %w", p, err)
		}
		if c.codecObs != nil {
			c.codecObs.CodecOp(op, "decode", sparseRawBytes(int(rows), int(dim)), len(wire), time.Since(start))
		}
		c.bytes.put(wire)
	}
	return nil
}
