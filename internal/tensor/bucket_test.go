package tensor

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceBuckets is the naive map/append bucketing the RowBucketer
// replaces: per-destination slices of original positions, in input order.
func referenceBuckets(ids []int64, ndst int, destOf func(int64) int) [][]int32 {
	out := make([][]int32, ndst)
	for i, id := range ids {
		d := destOf(id)
		out[d] = append(out[d], int32(i))
	}
	return out
}

func checkAgainstReference(t *testing.T, b *RowBucketer, ids []int64, ref [][]int32) {
	t.Helper()
	offs := b.Offsets()
	if len(offs) != len(ref)+1 || offs[0] != 0 || offs[len(ref)] != len(ids) {
		t.Fatalf("offsets %v for %d ids, %d destinations", offs, len(ids), len(ref))
	}
	for d, want := range ref {
		if b.Counts()[d] != len(want) {
			t.Fatalf("dest %d: count %d, want %d", d, b.Counts()[d], len(want))
		}
		got := b.Perm()[offs[d]:offs[d+1]]
		if len(got) != len(want) {
			t.Fatalf("dest %d: bucket size %d, want %d", d, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("dest %d pos %d: perm %d, want %d (stability violated)", d, k, got[k], want[k])
			}
		}
	}
}

func TestRowBucketerMatchesMapBucketing(t *testing.T) {
	var b RowBucketer
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		ndst := 1 + rng.Intn(9)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(500))
		}
		destOf := func(id int64) int { return int(id) % ndst }
		b.Bucket(ids, ndst, destOf)
		checkAgainstReference(t, &b, ids, referenceBuckets(ids, ndst, destOf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRangesMatchesSearchsorted(t *testing.T) {
	var b RowBucketer
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndst := 1 + rng.Intn(7)
		vocab := int64(40 * ndst)
		// Sorted boundaries covering [0, vocab): bounds[0]=0, bounds[ndst]=vocab.
		bounds := make([]int64, ndst+1)
		for d := 1; d < ndst; d++ {
			bounds[d] = rng.Int63n(vocab)
		}
		bounds[ndst] = vocab
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		ids := make([]int64, rng.Intn(150))
		for i := range ids {
			ids[i] = rng.Int63n(vocab)
		}
		destOf := func(id int64) int {
			for d := 0; d < ndst; d++ {
				if id >= bounds[d] && id < bounds[d+1] {
					return d
				}
			}
			t.Fatalf("id %d outside bounds %v", id, bounds)
			return -1
		}
		b.BucketRanges(ids, bounds)
		checkAgainstReference(t, &b, ids, referenceBuckets(ids, ndst, destOf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRowBucketerSteadyStateAllocs(t *testing.T) {
	var b RowBucketer
	ids := make([]int64, 512)
	rng := rand.New(rand.NewSource(3))
	for i := range ids {
		ids[i] = int64(rng.Intn(4096))
	}
	destOf := func(id int64) int { return int(id % 8) }
	b.Bucket(ids, 8, destOf) // warm-up grows to the high-water mark
	if n := testing.AllocsPerRun(50, func() { b.Bucket(ids, 8, destOf) }); n != 0 {
		t.Fatalf("steady-state Bucket allocates %v times", n)
	}
	bounds := []int64{0, 512, 1024, 2048, 4096}
	b.BucketRanges(ids, bounds)
	if n := testing.AllocsPerRun(50, func() { b.BucketRanges(ids, bounds) }); n != 0 {
		t.Fatalf("steady-state BucketRanges allocates %v times", n)
	}
}

func TestSearchInt64(t *testing.T) {
	xs := []int64{2, 4, 4, 9}
	cases := []struct {
		x    int64
		want int
	}{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 3}, {9, 3}, {10, 4}}
	for _, c := range cases {
		if got := SearchInt64(xs, c.x); got != c.want {
			t.Errorf("SearchInt64(%v, %d) = %d, want %d", xs, c.x, got, c.want)
		}
	}
	if SearchInt64(nil, 5) != 0 {
		t.Error("empty slice should return 0")
	}
	if !ContainsSorted(xs, 4) || ContainsSorted(xs, 5) {
		t.Error("ContainsSorted membership wrong")
	}
}

func TestSortInt64MatchesSortSlice(t *testing.T) {
	f := func(xs []int64) bool {
		mine := append([]int64(nil), xs...)
		ref := append([]int64(nil), xs...)
		SortInt64(mine)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range mine {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Adversarial shapes for the quicksort: sorted, reversed, constant, long.
	long := make([]int64, 5000)
	for i := range long {
		long[i] = int64((i * 7919) % 1000)
	}
	for _, xs := range [][]int64{
		{5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		long,
	} {
		SortInt64(xs)
		for i := 1; i < len(xs); i++ {
			if xs[i-1] > xs[i] {
				t.Fatalf("not sorted at %d", i)
			}
		}
	}
}

func TestUniqueSortedMatchesUniqueInt64(t *testing.T) {
	f := func(xs []int64) bool {
		want := UniqueInt64(xs)
		got := append([]int64(nil), xs...)
		SortInt64(got)
		got = UniqueSorted(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAndSearchSteadyStateAllocs(t *testing.T) {
	xs := make([]int64, 1024)
	rng := rand.New(rand.NewSource(9))
	fill := func() {
		for i := range xs {
			xs[i] = rng.Int63n(1 << 20)
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, func() {
		fill()
		SortInt64(xs)
		UniqueSorted(xs)
	}); n != 0 {
		t.Fatalf("SortInt64+UniqueSorted allocates %v times", n)
	}
}

// Offsets and Perm read after the next Bucket call see negative sentinels
// wherever the new call did not write, instead of the old grouping.
func TestRowBucketerPoisonsStaleScratch(t *testing.T) {
	var b RowBucketer
	ids := []int64{0, 1, 2, 3, 4, 5}
	b.Bucket(ids, 4, func(id int64) int { return int(id % 4) })
	offs, perm := b.Offsets(), b.Perm()
	b.Bucket(ids[:2], 2, func(id int64) int { return int(id % 2) })
	for _, o := range offs[len(b.Offsets()):] {
		if o >= 0 {
			t.Fatalf("stale offsets %v not poisoned", offs)
		}
	}
	for _, p := range perm[len(b.Perm()):] {
		if p >= 0 {
			t.Fatalf("stale perm %v not poisoned", perm)
		}
	}
}
