package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is the schema of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram fails when BENCHMARK.json and the
// program disagree on a workload or on a metric's name, unit, direction
// or bound.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"cmd/salsabench"}) {
		t.Errorf("paths = %q, want [cmd/salsabench]", bf.Paths)
	}

	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json %q, program %q", got, want)
	}

	var gotE2E, wantE2E []metric
	for _, m := range bf.EndToEnd {
		gotE2E = append(gotE2E, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	wantE2E = endToEndMetrics
	if !reflect.DeepEqual(gotE2E, wantE2E) {
		t.Errorf("end_to_end:\nBENCHMARK.json %v\nprogram        %v", gotE2E, wantE2E)
	}

	var gotLayer []metric
	for _, m := range bf.PerLayer {
		gotLayer = append(gotLayer, metric{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(gotLayer, layerMetrics) {
		t.Errorf("per_layer:\nBENCHMARK.json %v\nprogram        %v", gotLayer, layerMetrics)
	}
}
