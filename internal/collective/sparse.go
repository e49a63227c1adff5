package collective

import (
	"fmt"
	"math"

	"embrace/internal/tensor"
)

// The sparse AlltoAll of the embedding gradients (§4.1): each peer stream
// opens with one []int64 frame, [rows, dim, indices…] — counts first, then
// the indices, in a buffer drawn from the Communicator's pools — followed
// by the values. Every received stream is copied straight into a
// caller-owned SparseShards arena, whose backing arrays grow to a high-water
// mark and are then reused forever, so the exchange allocates nothing in
// steady state.
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
// payload and back. No exchange uses one: the interface and RowClass stay
// only because the benchmark's per-row codec probes (internal/compress)
// are written against them.
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

// appendShard copies one received (or self) stream into the arena. Every
// row id must lie in [0, NumRows) of the receiver's table: ids come from the
// wire, and one out of range would otherwise pass the exchange and panic in
// the coalesce or the optimizer's row update.
//
//embrace:hotpath
func (a *SparseShards) appendShard(p int, dim int32, idx []int64, vals []float32) error {
	for _, row := range idx {
		if uint64(row) >= uint64(a.merged.NumRows) {
			return fmt.Errorf("collective: alltoallsparse stream from rank %d: row %d outside [0, %d)", p, row, a.merged.NumRows)
		}
	}
	a.merged.Indices = append(a.merged.Indices, idx...)
	a.merged.Vals = append(a.merged.Vals, vals...)
	a.ends[p] = len(a.merged.Indices)
	a.vends[p] = len(a.merged.Vals)
	a.dims[p] = dim
	return nil
}

// sparseHeaderError reports a peer stream header no shard can carry: a
// negative row count or width, or more values than an int32 can count. The
// header arrives from the wire, so it is checked before anything trusts it.
type sparseHeaderError struct {
	from      int
	rows, dim int64
}

func (e sparseHeaderError) Error() string {
	return fmt.Sprintf("collective: alltoallsparse header from rank %d: %d rows x dim %d", e.from, e.rows, e.dim)
}

// AlltoAllSparse routes shard send[p] to rank p and fills arena with the
// received shards in sender order. Every peer stream opens with a pooled
// []int64 header, [rows, dim, indices…]; a non-empty one goes on with a
// pooled []float32 of its values. Ownership of the buffers travels with the
// message: the receiver copies each stream into the arena and recycles them
// into its own pools. Senders may carry different column widths (each
// stream's header says its own); when every sender matches the receiver's
// width the merged arena is bit-identical to tensor.Concat of the senders'
// shards. Per-sender views come from ShardView either way. Every row id, the
// self shard's included, must lie in [0, NumRows) of send[rank]; a stream
// that breaks this fails the exchange with an error naming its sender.
//
// The self shard never touches the wire, the observer or the pooled wire
// buffers: rank r's own rows are copied directly into the arena at sender
// position r (self-send elision).
//
//embrace:hotpath
func (c *Communicator) AlltoAllSparse(op string, step int, send []*tensor.Sparse, arena *SparseShards) error {
	n, r := c.t.Size(), c.t.Rank()
	if len(send) != n {
		return fmt.Errorf("collective: alltoallsparse wants %d send parts, got %d", n, len(send))
	}
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	numRows, dim := send[r].NumRows, send[r].Dim

	// Send phase: the header with the indices, then the values unless the
	// shard is empty.
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		sh := send[p]
		hdr := c.i64.get(2 + len(sh.Indices))
		hdr[0], hdr[1] = int64(len(sh.Indices)), int64(sh.Dim)
		copy(hdr[2:], sh.Indices)
		if err := c.sendRaw(rt, p, hdr); err != nil {
			return fmt.Errorf("alltoallsparse header to %d: %w", p, err)
		}
		if len(sh.Indices) == 0 {
			continue
		}
		vbuf := c.f32.get(len(sh.Vals))
		copy(vbuf, sh.Vals)
		if err := c.sendRaw(rt, p, vbuf); err != nil {
			return fmt.Errorf("alltoallsparse values to %d: %w", p, err)
		}
	}

	// Receive phase, in sender order, so the arena is the sender-ordered
	// concatenation. Rank r's own shard is copied in at its position without
	// ever having been packed.
	arena.reset(n, numRows, dim)
	for p := 0; p < n; p++ {
		if p == r {
			if err := arena.appendShard(p, int32(send[r].Dim), send[r].Indices, send[r].Vals); err != nil {
				return err
			}
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
		if int64(len(idx)) != rows {
			return fmt.Errorf("collective: alltoallsparse header from rank %d: %d indices for %d rows", p, len(idx), rows)
		}
		var vals []float32
		if rows > 0 {
			payload, err = c.recvRaw(rt, p)
			if err != nil {
				return fmt.Errorf("alltoallsparse values from %d: %w", p, err)
			}
			if vals, ok = payload.([]float32); !ok {
				return fmt.Errorf("collective: alltoallsparse value type %T from rank %d", payload, p)
			}
			if int64(len(vals)) != rows*dim {
				return fmt.Errorf("collective: alltoallsparse stream from rank %d: %d values, header %d rows x dim %d",
					p, len(vals), rows, dim)
			}
		}
		if err := arena.appendShard(p, int32(dim), idx, vals); err != nil {
			return err
		}
		c.i64.put(hdr)
		c.f32.put(vals)
	}
	return nil
}
