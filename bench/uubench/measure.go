package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// report is the outcome of one workload run: the metric values plus the
// operation accounting and the correctness verdict. A metric a workload
// does not exercise keeps the value 0.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems lists why the run is incorrect; a failed operation adds one
	// line, and so does a golden or final-state mismatch that no single
	// operation owns.
	problems []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, value float64) { r.values[name] = value }

// fail records a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness problem that is not an operation failure.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// percentile interpolates linearly between the order statistics of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so calibration here matches how the benchmark's
// spread is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// latencies accumulates operation latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// setOpMetrics sets the end-to-end operation metrics of a closed-loop run:
// latency median and p90, and operations completed per second the client
// spent waiting on them.
func setOpMetrics(r *report, lats latencies, busy time.Duration) {
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	r.set("op_p50_ms", percentile(s, 0.5))
	r.set("op_p90_ms", percentile(s, 0.9))
	r.set("ops_per_s", float64(len(lats))/busy.Seconds())
}

// rssSampler samples the process's resident set size every 10 ms from
// start until median is called.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			raw, err := os.ReadFile("/proc/self/statm")
			if err == nil {
				if f := strings.Fields(string(raw)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.samples = append(s.samples, pages*page/(1<<20))
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0
	}
	return median(s.samples)
}

// timeSetups runs setup at least three times and until minTime has
// passed, keeping the last instance and discarding the others, and
// returns the median duration. Repeating makes the set-up metric a median
// even when one set-up takes milliseconds. Each set-up starts after a
// collection, as in a fresh process, rather than on the garbage of the
// input generator or of the discarded instance.
func timeSetups[T any](minTime time.Duration, setup func() (T, error), discard func(T)) (T, float64, error) {
	const minSetups = 3
	var (
		inst  T
		times []float64
		total time.Duration
	)
	for len(times) < minSetups || total < minTime {
		if len(times) > 0 {
			discard(inst)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0)
		if err != nil {
			return inst, 0, err
		}
		inst = v
		times = append(times, d.Seconds())
		total += d
	}
	return inst, median(times), nil
}

// digest hashes results bit-exactly: floats render in Go's shortest
// round-trip form, so two digests agree only when every estimate has the
// same bit pattern.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digest) result(res *engine.Result) {
	fmt.Fprintf(d.h, "obs=%v cov=%v;", res.Observed, res.Coverage)
	names := make([]string, 0, len(res.Estimates))
	for name := range res.Estimates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(d.h, "%s=%+v;", name, res.Estimates[name])
	}
	fmt.Fprintf(d.h, "bound=%+v;", res.Bound)
	if res.CountInterval != nil {
		fmt.Fprintf(d.h, "interval=%+v;", *res.CountInterval)
	}
	if res.Extreme != nil {
		fmt.Fprintf(d.h, "extreme=%+v;", *res.Extreme)
	}
	for _, g := range res.Groups {
		fmt.Fprintf(d.h, "group=%s{", g.Key)
		d.result(g.Result)
		io.WriteString(d.h, "}")
	}
}

func resultDigest(res *engine.Result) string {
	d := newDigest()
	d.result(res)
	return d.sum()
}

// goldenJSON maps "<workload>/<size>/seed<n>" to the digest a correct
// build produces. Seeds without an entry are checked by the oracles alone.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func goldenKey(workload string, quick bool, seed int64) string {
	size := "full"
	if quick {
		size = "quick"
	}
	return fmt.Sprintf("%s/%s/seed%d", workload, size, seed)
}

func readGoldens(raw []byte) (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("parsing goldens: %w", err)
	}
	return g, nil
}

// checkGolden compares a run's digest with its committed golden. With
// -update-golden it records the digest in that file instead.
func checkGolden(cfg *config, r *report, workload, got string) {
	key := goldenKey(workload, cfg.quick, cfg.seed)
	if cfg.updateGolden != "" {
		if err := recordGolden(cfg.updateGolden, key, got); err != nil {
			r.problem("%v", err)
		}
		return
	}
	g, err := readGoldens(goldenJSON)
	if err != nil {
		r.problem("%v", err)
		return
	}
	want, ok := g[key]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "uubench: %s: no golden digest for %s; oracle checks only\n", workload, key)
	case want != got:
		r.problem("golden digest mismatch for %s: got %s, want %s", key, got, want)
	}
}

func recordGolden(path, key, digest string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		raw, err = []byte("{}"), nil
	}
	if err != nil {
		return err
	}
	g, err := readGoldens(raw)
	if err != nil {
		return err
	}
	g[key] = digest
	if raw, err = json.MarshalIndent(g, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// dirBytes sums the sizes of the regular files under dir and counts those
// whose name ends in suffix.
func dirBytes(dir, suffix string) (bytes int64, matching int, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if strings.HasSuffix(path, suffix) {
			matching++
		}
		return nil
	})
	return bytes, matching, err
}

// procIO reads the process's write counters from /proc/self/io: bytes
// passed to write-like system calls and the number of those calls.
func procIO() (wchar, syscw float64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "wchar":
			wchar = n
		case "syscw":
			syscw = n
		}
	}
	return wchar, syscw
}

// runtimeCounters reads the heap-allocation and CPU-class counters of the
// Go runtime.
type runtimeCounters struct {
	samples []metrics.Sample
}

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
}

// allocBytes is the cumulative number of heap bytes allocated.
func (c *runtimeCounters) allocBytes() uint64 {
	metrics.Read(c.samples[:1])
	return c.samples[0].Value.Uint64()
}

// cpu returns cumulative GC CPU seconds and busy (non-idle) CPU seconds.
func (c *runtimeCounters) cpu() (gc, busy float64) {
	metrics.Read(c.samples[1:])
	return c.samples[1].Value.Float64(), c.samples[2].Value.Float64() - c.samples[3].Value.Float64()
}

// setCacheRatios sets each cache layer's hit ratio over the interval
// between two snapshots of the counters.
func setCacheRatios(r *report, before, after engine.CacheStats) {
	hitRatio := func(h0, h1, m0, m1 uint64) float64 {
		return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	}
	r.set("engine.cache.program_hit_ratio", hitRatio(before.ProgramHits, after.ProgramHits, before.ProgramMisses, after.ProgramMisses))
	r.set("engine.cache.bitmap_hit_ratio", hitRatio(before.BitmapHits, after.BitmapHits, before.BitmapMisses, after.BitmapMisses))
	r.set("engine.cache.partial_hit_ratio", hitRatio(before.PartialHits, after.PartialHits, before.PartialMisses, after.PartialMisses))
	r.set("engine.cache.result_hit_ratio", hitRatio(before.ResultHits, after.ResultHits, before.ResultMisses, after.ResultMisses))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
