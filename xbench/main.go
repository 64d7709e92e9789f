// Command xbench is the repository's benchmark. One run measures one
// workload for a given time and prints every metric by name and unit; it
// checks every answer against a reference computed by the other engine.
//
//	xbench -workload table2-rel|table2-interp|serve-mix -seed N -seconds S -trace 0|1 \
//	       -work DIR -xqd PATH
//
// run.sh builds this command and xqd from the checkout and supplies -work
// and -xqd. With -trace 0 the run is untraced and reports the end-to-end
// metrics; with -trace 1 a traced run reports the per-layer metrics and
// writes its spans as Chrome trace-event JSON under -work. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Lines before it, starting with "#", give sample counts and per-cell
// figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for stores, logs and traces
	runDir   string // this run's own directory under work
	xqd      string // the xqd binary serve-mix starts
	tiny     bool   // small documents, for smoke tests
	corrupt  bool   // corrupt one reference answer, for tests of the oracle
}

func (c *config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c *config) sizes() sizes {
	if c.tiny {
		return tinySizes
	}
	return fullSizes
}

// result is what one run measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads are the workloads xbench runs. BENCHMARK.json lists all but
// table2-interp: on a shared 2-vCPU host its memory-bound interpreter cells
// spread too widely from run to run for any bound of at most 25%, so it is
// run by hand, as the control for changes to the relational engine.
var workloads = map[string]func(*config) (*result, error){
	"table2-rel":    func(c *config) (*result, error) { return runTable2(c, true) },
	"table2-interp": func(c *config) (*result, error) { return runTable2(c, false) },
	"serve-mix":     runServe,
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "table2-rel, table2-interp or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: drives the documents, the request draws and the cell order")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for stores, logs and traces")
	fs.StringVar(&cfg.xqd, "xqd", "", "xqd binary (serve-mix)")
	fs.BoolVar(&cfg.tiny, "tiny", false, "small documents (smoke tests)")
	pinOut := fs.String("write-pins", "", "recompute pinned.json for the default seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinOut != "" {
		if err := os.MkdirAll(cfg.work, 0o755); err != nil {
			fmt.Fprintln(stderr, "xbench:", err)
			return 1
		}
		if err := writePins(*pinOut, cfg.work); err != nil {
			fmt.Fprintln(stderr, "xbench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *traceFlag == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "xbench: need -workload table2-rel|table2-interp|serve-mix, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, err := measure(cfg, fn)
	if err != nil {
		fmt.Fprintln(stderr, "xbench:", err)
		return 1
	}
	if err := emit(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "xbench:", err)
		return 1
	}
	return 0
}

// measure runs one workload in a fresh run directory and removes the
// directory afterwards, keeping only the trace files written beside it.
func measure(cfg *config, fn func(*config) (*result, error)) (*result, error) {
	// The benchmark drives at most nproc connections and evaluates at p=1,
	// so it never asks for more processors than the machine has.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.runDir = dir
	spin, err := startSpinner()
	if err != nil {
		return nil, err
	}
	defer spin.stop()
	return fn(cfg)
}

func writeTrace(cfg *config, t *tracer) error {
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.writeChrome(path, "xbench "+cfg.workload); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

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

// emit prints the notes, then the result line with exactly the metrics of
// the run's kind: every end-to-end metric untraced, every per-layer metric
// traced.
func emit(w io.Writer, cfg *config, res *result) error {
	if res.attempted == 0 {
		return fmt.Errorf("%s attempted nothing", cfg.workload)
	}
	res.metrics["failed_frac"] = float64(res.failed) / float64(res.attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, name := range unexercised[cfg.workload] {
			res.metrics[name] = 0
		}
	}
	out := jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "# %-36s %14.4f %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
