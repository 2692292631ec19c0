// Command uubench is the repository's end-to-end benchmark. It runs four
// workloads against the engine and the uuserve daemon, each separating
// one layer: the Monte-Carlo estimator (crowd-sum), the bucket estimator
// (synthetic-avg), the cold disk scan (drilldown-disk) and the write path
// beside a live subscription (serve-ingest).
//
// Usage, from the bench directory:
//
//	go run ./uubench -seed 1                       # every workload, one child process each
//	go run ./uubench -workload crowd-sum -seed 1   # one workload
//	go run ./uubench -workload crowd-sum -trace 1  # per-layer split, spans to -trace-out
//	go run ./uubench -repeat 10                    # seeds 1..10, median and quartiles
//
// Each run prints one line per metric, "workload metric unit value", and
// a single workload's run ends with a JSON summary line. The exit status
// is non-zero when any answer is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run. An operation is a query on the query workloads and an
// ingest batch on serve-ingest, where its latency runs from the request
// until the subscriber receives an estimate that includes the batch.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed by a traced run.
// Every workload prints all of them; a layer the workload does not reach
// reads 0.
var perLayer = []metricSpec{
	{"sqlparse.parse_ms", "ms"},
	{"engine.scan_ms", "ms"},
	{"engine.scan.alloc_kb", "KiB"},
	{"engine.scan.rows_per_entity", "rows/entity"},
	{"engine.cache.program_hit_ratio", "frac"},
	{"engine.cache.bitmap_hit_ratio", "frac"},
	{"engine.cache.partial_hit_ratio", "frac"},
	{"engine.cache.result_hit_ratio", "frac"},
	{"freqstats.entities", "count"},
	{"freqstats.observations", "count"},
	{"freqstats.sources", "count"},
	{"species.ms", "ms"},
	{"core.naive_ms", "ms"},
	{"core.freq_ms", "ms"},
	{"core.bound_ms", "ms"},
	{"core.bucket_ms", "ms"},
	{"core.bucket.alloc_mb", "MiB"},
	{"core.bucket.buckets", "count"},
	{"core.mc_ms", "ms"},
	{"core.mc.alloc_mb", "MiB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"engine.ingest.append_ms", "ms"},
	{"engine.ingest.flush_ms", "ms"},
	{"engine.ingest.batches_per_flush", "count"},
	{"engine.storage.write_bytes_per_user_byte", "B/B"},
	{"engine.storage.write_syscalls_per_batch", "count"},
	{"engine.storage.segment_files", "count"},
	{"engine.storage.disk_bytes_per_user_byte", "B/B"},
	{"engine.subscribe.reexec_ms", "ms"},
	{"engine.subscribe.emit_lag_p50_ms", "ms"},
	{"engine.subscribe.emit_lag_p90_ms", "ms"},
	{"server.ack_p50_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

type workload interface {
	run(cfg *config) (*report, error)
}

var workloads = []struct {
	name string
	w    workload
}{
	{"crowd-sum", queryWorkload{"crowd-sum", genCrowdSum}},
	{"synthetic-avg", queryWorkload{"synthetic-avg", genSyntheticAvg}},
	{"drilldown-disk", queryWorkload{"drilldown-disk", genDrilldownDisk}},
	{"serve-ingest", serveWorkload{}},
}

type config struct {
	seed         int64
	seconds      float64
	quick        bool
	trace        bool
	work         string
	traceOut     string
	updateGolden string
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c *config) traceFile(workload string) string {
	if c.traceOut != "" {
		return c.traceOut
	}
	return filepath.Join(c.work, "trace-"+workload+".jsonl")
}

// minSetupTime is how long set-up is repeated at least, so its median is
// taken over many set-ups when one takes milliseconds; quick runs skip it.
func (c *config) minSetupTime() time.Duration {
	if c.quick {
		return 0
	}
	return time.Second
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("uubench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := &config{}
	name := fl.String("workload", "", "run only this workload (default: all, each in its own process)")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fl.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	traceFlag := fl.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fl.BoolVar(&cfg.quick, "quick", false, "small inputs, for tests")
	fl.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "uubench"), "directory for disk data and trace files")
	fl.StringVar(&cfg.traceOut, "trace-out", "", "spans file of a traced run (default <work>/trace-<workload>.jsonl)")
	fl.StringVar(&cfg.updateGolden, "update-golden", "", "record this run's digest in this golden file instead of checking it")
	repeat := fl.Int("repeat", 1, "run the set this many times on consecutive seeds and print medians and quartiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "uubench: -trace takes 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if lookup(*name) == nil {
		fmt.Fprintf(stderr, "uubench: unknown workload %q\n", *name)
		return 2
	}
	switch {
	case *repeat > 1:
		return repeatRuns(cfg, names, *repeat, stdout, stderr)
	case *name == "":
		return runAll(cfg, names, stdout, stderr)
	default:
		return runOne(cfg, *name, stdout, stderr)
	}
}

func lookup(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.w
		}
	}
	return nil
}

// summary is the JSON line that ends a single workload's run.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process.
func runOne(cfg *config, name string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "uubench: %v\n", err)
		return 1
	}
	r, err := lookup(name).run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "uubench: %s: %v\n", name, err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	sum := summary{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]summaryItem{}}
	for _, m := range specs {
		v := r.values[m.name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, m.name, m.unit, strconv.FormatFloat(v, 'g', -1, 64))
		sum.Metrics[m.name] = summaryItem{v, m.unit}
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "uubench: %s: ... %d more\n", name, len(r.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "uubench: %s: %s\n", name, p)
	}
	sum.Correct = len(r.problems) == 0
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "uubench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a child process, so that each workload's
// memory and runtime state are its own, and returns the metric lines it
// printed and its summary.
func child(cfg *config, name string, seed int64, stderr io.Writer) ([]string, *summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-work", cfg.work}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if cfg.updateGolden != "" {
		args = append(args, "-update-golden", cfg.updateGolden)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		if runErr != nil {
			return nil, nil, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, nil, fmt.Errorf("%s seed %d: no summary line", name, seed)
	}
	return lines[:len(lines)-1], &sum, nil
}

func runAll(cfg *config, names []string, stdout, stderr io.Writer) int {
	status := 0
	for _, name := range names {
		lines, sum, err := child(cfg, name, cfg.seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "uubench: %v\n", err)
			status = 1
			continue
		}
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		if !sum.Correct || sum.Failed > 0 {
			status = 1
		}
	}
	return status
}

// repeatRuns runs every workload n times on seeds seed..seed+n-1 and
// prints each metric's median, quartiles and spread (the distance between
// the quartiles as a share of the median): the numbers the bounds in
// BENCHMARK.json are set from.
func repeatRuns(cfg *config, names []string, n int, stdout, stderr io.Writer) int {
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			_, sum, err := child(cfg, name, cfg.seed+int64(i), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "uubench: %v\n", err)
				status = 1
				continue
			}
			if !sum.Correct || sum.Failed > 0 {
				status = 1
			}
			for k, m := range sum.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		specs := endToEnd
		if cfg.trace {
			specs = perLayer
		}
		for _, m := range specs {
			vs := values[m.name]
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			runs := make([]string, len(vs))
			for i, v := range vs {
				runs[i] = strconv.FormatFloat(v, 'g', 4, 64)
			}
			fmt.Fprintf(stdout, "%s %s %s median=%.6g q1=%.6g q3=%.6g spread=%.3f runs=%s\n",
				name, m.name, m.unit, med, q1, q3, ratio(q3-q1, med), strings.Join(runs, ","))
		}
	}
	return status
}
