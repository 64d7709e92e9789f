package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// xqdBin is the xqd binary built once for the serve-mix tests.
var xqdBin string

func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin() // serve-mix runs the test binary as its idle spinner
	}
	dir, err := os.MkdirTemp("", "xbench-test-")
	if err != nil {
		panic(err)
	}
	xqdBin = filepath.Join(dir, "xqd")
	out, err := exec.Command("go", "build", "-o", xqdBin, "repro/cmd/xqd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building xqd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// wantUnits maps each metric BENCHMARK.json lists for a run kind to its
// unit.
func wantUnits(mf manifest, traced bool) map[string]string {
	out := map[string]string{}
	defs := mf.EndToEnd
	if traced {
		defs = mf.PerLayer
	}
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func TestMetricCatalogMatchesManifest(t *testing.T) {
	mf := loadManifest(t)
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		want := wantUnits(mf, traced)
		if len(defs) != len(want) {
			t.Errorf("traced=%v: catalog has %d metrics, BENCHMARK.json %d", traced, len(defs), len(want))
		}
		for _, d := range defs {
			if want[d.name] != d.unit {
				t.Errorf("traced=%v: %s has unit %q, BENCHMARK.json says %q", traced, d.name, d.unit, want[d.name])
			}
		}
	}
	for _, w := range mf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
}

// runOnce runs the command line and decodes the result line.
func runOnce(t *testing.T, args ...string) jsonResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	return res
}

// TestSmoke runs every workload, including the one BENCHMARK.json leaves
// out, at tiny size, untraced and traced, on the default seed and a second
// one: every answer must check, and the result must carry exactly the
// metrics BENCHMARK.json lists, each with its unit.
func TestSmoke(t *testing.T) {
	mf := loadManifest(t)
	work := t.TempDir()
	for w := range workloads {
		for _, seed := range []string{"1", "2"} {
			for _, trace := range []string{"0", "1"} {
				res := runOnce(t, "-workload", w, "-seed", seed, "-seconds", "1", "-trace", trace,
					"-tiny", "-work", work, "-xqd", xqdBin)
				name := w + " seed " + seed + " trace " + trace
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
				}
				want := wantUnits(mf, trace == "1")
				if len(res.Metrics) != len(want) {
					t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
				}
				for n, unit := range want {
					if got, ok := res.Metrics[n]; !ok || got.Unit != unit {
						t.Errorf("%s: metric %s = %+v, want unit %s", name, n, got, unit)
					}
				}
			}
		}
	}
	if traces, _ := filepath.Glob(filepath.Join(work, "trace-*.json")); len(traces) != len(workloads)*2 {
		t.Errorf("traced runs wrote %d trace files, want %d", len(traces), len(workloads)*2)
	}
}

// TestCorruptReference proves the oracle bites: with one reference answer
// corrupted, every workload reports failures.
func TestCorruptReference(t *testing.T) {
	for name, fn := range workloads {
		cfg := &config{workload: name, seed: 2, seconds: 1, trace: true, tiny: true, corrupt: true,
			work: t.TempDir(), xqd: xqdBin}
		res, err := measure(cfg, fn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := emit(&out, cfg, res); err != nil {
			t.Fatal(err)
		}
		if res.metrics["failed_frac"] <= 0 || res.failed == 0 {
			t.Errorf("%s: failed_frac %v with a corrupted reference", name, res.metrics["failed_frac"])
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line does not say correct=false", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("query", at(0), at(100), -1, 0)
	tr.add("a", at(10), at(40), root, 0)
	tr.add("b", at(30), at(60), root, 0) // overlaps a: covered once
	c := tr.add("c", at(70), at(90), root, 0)
	tr.add("d", at(75), at(80), c, 0)
	self := tr.selfTimes()
	for name, want := range map[string]int64{"query": 30, "a": 30, "b": 30, "c": 15, "d": 5} {
		if got := self[name].selfNs / 1e6; got != want {
			t.Errorf("%s: self %dms, want %dms", name, got, want)
		}
	}
}

func TestScheduleIsPrefixStable(t *testing.T) {
	short, long := schedule(3, 500, fullSizes), schedule(3, 1000, fullSizes)
	for i := range short {
		if short[i] != long[i] {
			t.Fatalf("event %d differs between a 500- and a 1000-event schedule", i)
		}
	}
	writes := 0
	for _, ev := range long {
		if ev.write {
			writes++
		}
	}
	if writes != 1000/writeEvery {
		t.Errorf("%d writes in 1000 events, want %d", writes, 1000/writeEvery)
	}
}
