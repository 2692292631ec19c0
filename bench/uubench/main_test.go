package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specJSON `json:"end_to_end"`
	PerLayer []specJSON `json:"per_layer"`
}

type specJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json declares
// exactly the program's workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		declared []specJSON
		program  []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("BENCHMARK.json declares %d metrics, program prints %d", len(c.declared), len(c.program))
			continue
		}
		for i, m := range c.program {
			if c.declared[i] != (specJSON{m.name, m.unit}) {
				t.Errorf("metric %d: BENCHMARK.json has %+v, program prints %s %s", i, c.declared[i], m.name, m.unit)
			}
		}
	}
}

// TestQuickWorkloads runs every workload at its quick size, untraced on
// both seeds that have goldens and traced once, and checks each run's
// metric lines, summary line and golden digest.
func TestQuickWorkloads(t *testing.T) {
	g, err := readGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, w := range workloads {
		for _, tc := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {2, false}, {1, true}} {
			t.Run(fmt.Sprintf("%s/seed%d/trace=%v", w.name, tc.seed, tc.trace), func(t *testing.T) {
				if _, ok := g[goldenKey(w.name, true, tc.seed)]; !ok {
					t.Fatalf("no golden for %s", goldenKey(w.name, true, tc.seed))
				}
				trace, specs := "0", endToEnd
				if tc.trace {
					trace, specs = "1", perLayer
				}
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", fmt.Sprint(tc.seed), "-seconds", "0.2", "-quick",
					"-trace", trace, "-work", work}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("summary line: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
					t.Fatalf("summary %+v: %s", sum, stderr.String())
				}
				units := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w.name {
						t.Fatalf("metric line %q is not \"workload metric unit value\"", l)
					}
					units[f[1]] = f[2]
				}
				if len(units) != len(specs) || len(sum.Metrics) != len(specs) {
					t.Errorf("%d metric lines and %d summary metrics, want %d", len(units), len(sum.Metrics), len(specs))
				}
				for _, m := range specs {
					if units[m.name] != m.unit || sum.Metrics[m.name].Unit != m.unit {
						t.Errorf("%s: printed unit %q, summary unit %q, want %q", m.name, units[m.name], sum.Metrics[m.name].Unit, m.unit)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
