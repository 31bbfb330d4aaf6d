package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json lists exactly the
// metrics the benchmark reports, with the same units and directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if !reflect.DeepEqual(c.got, c.want) {
			want, _ := json.Marshal(c.want)
			t.Errorf("BENCHMARK.json %s differs from the catalogue; want\n%s", c.name, want)
		}
	}
}
