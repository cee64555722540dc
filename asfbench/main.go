// Command asfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock window and prints, as the last line of
// standard output, a JSON object with the correctness verdict, the
// attempted and failed cell counts, and the metrics BENCHMARK.json
// declares: the end-to-end metrics for an untraced run (--trace 0), the
// per-layer metrics for a traced run (--trace 1). A human-readable report
// with every metric's unit and sample count, plus the machine
// fingerprint, goes to standard error.
//
// Workloads (see README.md for why each exists):
//
//	sim-matrix  the paper's 10-kernel x 6-detection matrix in-process
//	serve-cold  an in-process asfd, every cell a cache miss
//
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadFunc runs one workload and records its metrics into b.
type workloadFunc func(b *bench) error

var benchWorkloads = map[string]workloadFunc{
	"sim-matrix": runSimMatrix,
	"serve-cold": runServe,
}

func main() {
	name := flag.String("workload", "", "workload: sim-matrix or serve-cold")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window, seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	recordDigests := flag.String("record-digests", "", "print the sim-matrix run digests for seeds FROM-TO and exit")
	calibrateOnly := flag.Bool(strings.TrimPrefix(calibrateFlag, "--"), false, "run the host-speed calibration once, print its seconds and exit")
	flag.Parse()

	if *calibrateOnly {
		runCalibration()
		return
	}

	if *recordDigests != "" {
		if err := printDigests(*recordDigests); err != nil {
			fmt.Fprintln(os.Stderr, "asfbench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := benchWorkloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "asfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "asfbench:", err)
		os.Exit(1)
	}
	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "asfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		tmp:      tmp,
		correct:  true,
		metrics:  map[string]measured{},
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "asfbench: %s: %v\n", *name, err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	declared := spec.EndToEnd
	if b.traced {
		declared = spec.PerLayer
	}
	out, err := b.result(declared)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asfbench: %s: %v\n", *name, err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	b.report(os.Stderr)
	fmt.Println(string(out))
	if !b.correct || b.failed > 0 {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range benchWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scratchDir makes a per-run directory under .bench_build in the working
// directory, so journals, snapshots and profiles never leave the checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	unit  string
	n     int
}

// bench carries one run's parameters and accumulates its results.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	tmp      string

	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]measured
	notes     []string
}

// put records a metric. n is the sample count behind the value (1 for a
// single measurement or a deterministic count).
func (b *bench) put(name string, value float64, unit string, n int) {
	b.metrics[name] = measured{value: value, unit: unit, n: n}
}

// fail records a correctness failure: cells failed cells, and the reason.
func (b *bench) fail(cells int, format string, args ...any) {
	b.correct = false
	b.failed += cells
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// half is the measured window of each of a traced run's two segments
// (untraced, then traced).
func (b *bench) half() time.Duration { return b.window / 2 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result renders the final JSON line with exactly the declared metrics.
// A declared metric the run did not produce, or one produced in another
// unit, is an error: the declarations and the code must agree.
func (b *bench) result(declared []metricSpec) ([]byte, error) {
	if b.attempted < 1 {
		return nil, errors.New("no cells attempted")
	}
	out := jsonResult{Correct: b.correct && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range declared {
		m, ok := b.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if m.unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %q but declared in %q", d.Name, m.unit, d.Unit)
		}
		out.Metrics[d.Name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("declared metrics not produced: %s", strings.Join(missing, ", "))
	}
	return json.Marshal(out)
}

// report prints every metric the run produced, with unit and sample
// count, the failure accounting and the machine fingerprint.
func (b *bench) report(w *os.File) {
	mode := "untraced"
	if b.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "asfbench %s seed=%d window=%s %s\n", b.workload, b.seed, b.window, mode)
	fmt.Fprintf(w, "machine: %s\n", fingerprint())
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14d cells\n", "attempted", b.attempted)
	fmt.Fprintf(w, "  %-34s %14d cells\n", "failed", b.failed)
	fmt.Fprintf(w, "  %-34s %14.4f ratio\n", "failed_frac", frac)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s n=%d\n", n, m.value, m.unit, m.n)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q NumCPU=%d GOMAXPROCS=%d go=%s %s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
