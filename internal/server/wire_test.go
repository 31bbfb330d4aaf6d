// Request-format contract: literal bodies in the wire spelling clients
// send today — both field orders, omitted defaults, and the exact bytes
// rmt.Client emits — must resolve to the same spec and sizes for as long
// as the format stands.
package server

import (
	"reflect"
	"testing"

	"repro/rmt"
)

func TestWireBodiesResolve(t *testing.T) {
	parse := map[string]func([]byte) (any, error){
		"/run":      func(b []byte) (any, error) { r, _, err := parseRun(b); return r, err },
		"/sweep":    func(b []byte) (any, error) { r, _, err := parseSweep(b); return r, err },
		"/campaign": func(b []byte) (any, error) { r, _, err := parseCampaign(b); return r, err },
	}
	gcc := []string{"gcc"}
	cases := []struct {
		name, path, body string
		want             any
	}{
		{"run defaults", "/run", `{"mode":"srt","programs":["gcc"]}`,
			RunRequest{rmt.Spec{Mode: rmt.SRT, Programs: gcc}, 30000, 20000}},
		{"run field order", "/run", `{"warmup":500,"psr":true,"budget":1000,"programs":["gcc","go"],"mode":"srt"}`,
			RunRequest{rmt.Spec{Mode: rmt.SRT, Programs: []string{"gcc", "go"}, PSR: true}, 1000, 500}},
		{"run omitted mode is base", "/run", `{"programs":["gcc"],"budget":1000,"warmup":500}`,
			RunRequest{rmt.Spec{Mode: rmt.Base, Programs: gcc}, 1000, 500}},
		{"run generated kernel", "/run", `{"mode":"base2","programs":["gen:7"],"per_thread_sq":true,"no_store_comparison":true}`,
			RunRequest{rmt.Spec{Mode: rmt.Base2, Programs: []string{"gen:7"}, PerThreadSQ: true, NoStoreComparison: true}, 30000, 20000}},
		{"run ignored checker latency", "/run", `{"mode":"crt","programs":["gcc"],"checker_latency":8}`,
			RunRequest{rmt.Spec{Mode: rmt.CRT, Programs: gcc}, 30000, 20000}},
		{"run theta minus zero", "/run", `{"mode":"adaptive","programs":["gcc"],"adaptive_threshold":-0}`,
			RunRequest{rmt.Spec{Mode: rmt.Adaptive, Programs: gcc}, 30000, 20000}},
		{"run theta minus one", "/run", `{"mode":"adaptive","programs":["gcc"],"adaptive_threshold":-1}`,
			RunRequest{rmt.Spec{Mode: rmt.Adaptive, Programs: gcc}, 30000, 20000}},
		{"run srtr default interval", "/run", `{"mode":"srtr","programs":["gcc"]}`,
			RunRequest{rmt.Spec{Mode: rmt.SRTR, Programs: gcc, CheckpointInterval: 1024}, 30000, 20000}},
		{"run client crt", "/run", `{"mode":"crt","programs":["gcc","swim"],"psr":true,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":0,"adaptive_threshold":0,"checkpoint_interval":0,"budget":9000,"warmup":4000}`,
			RunRequest{rmt.Spec{Mode: rmt.CRT, Programs: []string{"gcc", "swim"}, PSR: true}, 9000, 4000}},
		{"run client lockstep", "/run", `{"mode":"lockstep","programs":["li"],"psr":false,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":8,"adaptive_threshold":0,"checkpoint_interval":0,"budget":8000,"warmup":5000}`,
			RunRequest{rmt.Spec{Mode: rmt.Lockstep, Programs: []string{"li"}, CheckerLatency: 8}, 8000, 5000}},
		{"run client adaptive", "/run", `{"mode":"adaptive","programs":["gcc"],"psr":true,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":0,"adaptive_threshold":0.5,"checkpoint_interval":0,"budget":30000,"warmup":20000}`,
			RunRequest{rmt.Spec{Mode: rmt.Adaptive, Programs: gcc, PSR: true, AdaptiveThreshold: 0.5}, 30000, 20000}},

		{"sweep defaults", "/sweep", `{"specs":[{"mode":"base","programs":["compress"]},{"mode":"srt","programs":["compress"],"psr":true}]}`,
			SweepRequest{[]rmt.Spec{{Mode: rmt.Base, Programs: []string{"compress"}}, {Mode: rmt.SRT, Programs: []string{"compress"}, PSR: true}}, 30000, 20000}},
		{"sweep field order", "/sweep", `{"warmup":800,"budget":1500,"specs":[{"psr":true,"programs":["gcc"],"mode":"srt"}]}`,
			SweepRequest{[]rmt.Spec{{Mode: rmt.SRT, Programs: gcc, PSR: true}}, 1500, 800}},
		{"sweep client", "/sweep", `{"specs":[{"mode":"base","programs":["compress"],"psr":false,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":0,"adaptive_threshold":0,"checkpoint_interval":0},{"mode":"srtr","programs":["gen:7"],"psr":true,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":0,"adaptive_threshold":0,"checkpoint_interval":256}],"budget":1500,"warmup":800}`,
			SweepRequest{[]rmt.Spec{{Mode: rmt.Base, Programs: []string{"compress"}}, {Mode: rmt.SRTR, Programs: []string{"gen:7"}, PSR: true, CheckpointInterval: 256}}, 1500, 800}},

		{"campaign defaults", "/campaign", `{"mode":"crt","programs":["gcc","swim"],"n":4}`,
			CampaignRequest{rmt.Spec{Mode: rmt.CRT, Programs: []string{"gcc", "swim"}}, 4, 0, 20000, 5000}},
		{"campaign field order", "/campaign", `{"seed":3,"n":2,"warmup":1000,"budget":2000,"adaptive_threshold":0.75,"programs":["gcc"],"mode":"adaptive"}`,
			CampaignRequest{rmt.Spec{Mode: rmt.Adaptive, Programs: gcc, AdaptiveThreshold: 0.75}, 2, 3, 2000, 1000}},
		{"campaign client srt", "/campaign", `{"mode":"srt","programs":["compress"],"psr":true,"per_thread_sq":true,"no_store_comparison":true,"checker_latency":0,"adaptive_threshold":0,"checkpoint_interval":0,"n":5,"seed":7,"budget":0,"warmup":0}`,
			CampaignRequest{rmt.Spec{Mode: rmt.SRT, Programs: []string{"compress"}, PSR: true, PerThreadSQ: true, NoStoreComparison: true}, 5, 7, 20000, 5000}},
		{"campaign client srtr", "/campaign", `{"mode":"srtr","programs":["gcc"],"psr":false,"per_thread_sq":false,"no_store_comparison":false,"checker_latency":0,"adaptive_threshold":0,"checkpoint_interval":0,"n":8,"seed":1,"budget":2000,"warmup":1000}`,
			CampaignRequest{rmt.Spec{Mode: rmt.SRTR, Programs: gcc, CheckpointInterval: 1024}, 8, 1, 2000, 1000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse[tc.path]([]byte(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.path, tc.body, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s %s resolved to\n%+v\nwant\n%+v", tc.path, tc.body, got, tc.want)
			}
		})
	}
}
