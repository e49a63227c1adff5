package sched_test

import (
	"fmt"

	"embrace/internal/sched"
	"embrace/internal/tensor"
)

// VerticalSplit is Algorithm 1: coalesce the raw gradient, then split it
// against the prefetched next batch.
func ExampleVerticalSplit() {
	raw, _ := tensor.NewSparse(100, 1,
		[]int64{7, 7, 3, 9},
		[]float32{1, 1, 5, 9})
	current := raw.UniqueIndices()
	next := []int64{7, 42} // prefetched next-batch tokens
	prior, delayed := sched.VerticalSplit(raw, current, next)
	fmt.Println("prior rows:", prior.Indices, "value:", prior.Vals)
	fmt.Println("delayed rows:", delayed.Indices)
	// Output:
	// prior rows: [7] value: [2]
	// delayed rows: [3 9]
}
