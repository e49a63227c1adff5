package main

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"

	"embrace"
	"embrace/internal/partition"
	"embrace/internal/trainer"
)

// TestElasticReportShape pins the -elastic-report keys: a faulted epoch's
// error and shard moves are not part of the artifact.
func TestElasticReportShape(t *testing.T) {
	res := &embrace.TrainResult{
		Recoveries: 1,
		FinalPPL:   42,
		Elastic: []embrace.ElasticEpoch{
			{Epoch: 0, Workers: 4, EndStep: 5, End: "fault", Crashed: []int{2},
				Fault: &trainer.FaultError{Rank: 2, Step: 6, Phase: "step", Err: errors.New("crash")}},
			{Epoch: 1, Workers: 3, StartStep: 5, EndStep: 10, End: "completed",
				Moves: []partition.ShardMove{{}}, RecoverySeconds: 0.25},
		},
	}
	buf, err := elasticReport(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Recoveries int              `json:"recoveries"`
		Epochs     []map[string]any `json:"epochs"`
		FinalPPL   float64          `json:"final_ppl"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Recoveries != 1 || got.FinalPPL != 42 || len(got.Epochs) != 2 {
		t.Fatalf("report %s", buf)
	}
	want := []string{"Crashed", "End", "EndStep", "Epoch", "RecoverySeconds", "StartStep", "Workers"}
	for i, ep := range got.Epochs {
		var keys []string
		for k := range ep {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("epoch %d keys %v, want %v", i, keys, want)
		}
	}
	if got.Epochs[1]["RecoverySeconds"] != 0.25 || got.Epochs[0]["End"] != "fault" {
		t.Fatalf("report %s", buf)
	}
}
