package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	ifpxq "repro"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xdm"
	"repro/internal/xmldoc"
)

// serveRate is serve-mix's offered load in operations per second. It keeps
// xqd at about a quarter of two cores, well below capacity, so latency is
// service time plus the queueing of post-write miss bursts, not a growing
// backlog; and a 30s run has over 30 samples beyond its p99.
const serveRate = 120.0

// replayQueries is how many of the schedule's first queries one traced
// replay pass evaluates in-process.
const replayQueries = 120

// serveDocs are serve-mix's documents; curriculum comes in two versions
// that snapshot writes alternate between.
type serveDocs struct {
	byVersion [2]map[string]*xdm.Document
	curricula [2][]byte // snapshot bytes of each curriculum version
}

// prepareServe generates and parses the documents and saves them as the
// .xqs snapshots of xqd's store directory.
func prepareServe(cfg *config, dir string) (*serveDocs, setupTimes, error) {
	sz := cfg.sizes()
	var tm setupTimes
	xml := map[string]string{
		"auction.xml":  auctionXML(sz.serveAuction, cfg.seed),
		"hospital.xml": hospitalXML(sz.patients, cfg.seed),
		"play.xml":     playXML(sz.play, cfg.seed),
	}
	cur := [2]string{curriculumXML(sz.courses, cfg.seed, false), curriculumXML(sz.courses, cfg.seed, true)}
	sd := &serveDocs{}
	shared := map[string]*xdm.Document{}
	parse := func(s, uri string) (*xdm.Document, error) {
		t0 := time.Now()
		d, err := xmldoc.ParseString(s, uri)
		tm.parse += ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", uri, err)
		}
		return d, nil
	}
	save := func(d *xdm.Document, uri string) error {
		t0 := time.Now()
		err := store.Save(filepath.Join(dir, uri+".xqs"), d)
		tm.save += ms(time.Since(t0))
		return err
	}
	for uri, s := range xml {
		d, err := parse(s, uri)
		if err != nil {
			return nil, tm, err
		}
		if err := save(d, uri); err != nil {
			return nil, tm, err
		}
		shared[uri] = d
	}
	for v := range cur {
		d, err := parse(cur[v], "curriculum.xml")
		if err != nil {
			return nil, tm, err
		}
		var buf bytes.Buffer
		if err := store.WriteSnapshot(&buf, d); err != nil {
			return nil, tm, err
		}
		sd.curricula[v] = buf.Bytes()
		sd.byVersion[v] = map[string]*xdm.Document{"curriculum.xml": d}
		for uri, d := range shared {
			sd.byVersion[v][uri] = d
		}
	}
	if err := save(sd.byVersion[0]["curriculum.xml"], "curriculum.xml"); err != nil {
		return nil, tm, err
	}
	return sd, tm, nil
}

// refKey names one reference answer: a request's parameters on one
// curriculum version.
type refKey struct {
	class, key, version int
	rel                 bool
}

// serveRefs computes, in-process and before anything is timed, the answer
// to every distinct query of the schedule with the engine the request does
// not use, on both curriculum versions where they differ.
func serveRefs(cfg *config, sd *serveDocs, evs []event) (map[refKey]string, error) {
	sz := cfg.sizes()
	var keys []refKey
	seen := map[refKey]bool{}
	for _, ev := range evs {
		if ev.write {
			continue
		}
		for v := 0; v < 2; v++ {
			if v == 1 && ev.class != classCurriculum {
				break
			}
			k := refKey{ev.class, ev.key, v, ev.rel}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	refs := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				refs[i], _, errs[i] = evalDocs(serveQuery(k.class, k.key, sz), !k.rel, ifpxq.ModeAuto, sd.byVersion[k.version])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	out := map[refKey]string{}
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", serveKey(k.class, k.key, k.version), errs[i])
		}
		out[k] = refs[i]
	}
	return out, nil
}

// serveOracle checks one answer against the references and, at the
// default seed, against the pinned digests.
type serveOracle struct {
	refs map[refKey]string
	pins map[string]string // nil when nothing is pinned
}

func (o *serveOracle) check(ev event, out string) bool {
	for v := 0; v < 2; v++ {
		ref, ok := o.refs[refKey{ev.class, ev.key, v, ev.rel}]
		if !ok || out != ref {
			continue
		}
		if pin, ok := o.pins[serveKey(ev.class, ev.key, v)]; ok && digest(out) != pin {
			continue
		}
		return true
	}
	return false
}

// xqdProc is one running xqd process.
type xqdProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startXQD starts xqd on the store with its defaults, apart from the
// address and the store.
func startXQD(bin, storeDir string, log io.Writer) (*xqdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-store", storeDir)
	cmd.Stdout, cmd.Stderr = log, log
	// run.sh tunes the runtime of the benchmark process through GODEBUG;
	// xqd runs with the runtime's defaults.
	cmd.Env = []string{}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	// Should the benchmark itself be killed, xqd goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting xqd: %w", err)
	}
	p := &xqdProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, lets xqd drain, and kills it if it has not exited
// after ten seconds. It returns once the process has ended.
func (p *xqdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// queryResponse is the part of xqd's /query JSON the benchmark reads.
type queryResponse struct {
	Result    string `json:"result"`
	ElapsedUs int64  `json:"elapsed_us"`
	DocWaitUs int64  `json:"doc_wait_us"`
}

func queryURL(base, src string, rel bool) string {
	v := url.Values{"q": {src}, "p": {"1"}}
	if rel {
		v.Set("engine", "rel")
	}
	return base + "/query?" + v.Encode()
}

// get performs one request and decodes a 200 answer.
func get(client *http.Client, u string) (int, queryResponse, error) {
	var qr queryResponse
	resp, err := client.Get(u)
	if err != nil {
		return 0, qr, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, qr, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, qr, nil
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		return resp.StatusCode, qr, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, qr, nil
}

// waitReady polls until xqd answers a 200 for one query on every document
// and returns the cold document waits xqd reported, summed.
func waitReady(client *http.Client, p *xqdProc) (float64, error) {
	giveUp := time.Now().Add(60 * time.Second)
	docWaitMs := 0.0
	for _, uri := range classURIs {
		u := queryURL(p.base, `count(doc("`+uri+`")/*)`, false)
		for {
			status, qr, err := get(client, u)
			if err == nil && status == http.StatusOK {
				docWaitMs += float64(qr.DocWaitUs) / 1e3
				break
			}
			if err == nil {
				return 0, fmt.Errorf("xqd answered %d to its first query on %s", status, uri)
			}
			select {
			case <-p.done:
				return 0, fmt.Errorf("xqd exited during start-up: %v", p.err)
			default:
			}
			if time.Now().After(giveUp) {
				return 0, fmt.Errorf("xqd not ready after 60s: %w", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return docWaitMs, nil
}

func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParsePromText(resp.Body)
}

// queueWaits reads the admission queue wait of every request xqd logged
// after offset, in ms. The request log resolves waits far below the 1ms
// first bucket of xqd's /metrics queue-wait histogram.
func queueWaits(path string, offset int64) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, line := range strings.Split(string(b[min(offset, int64(len(b))):]), "\n") {
		_, rest, ok := strings.Cut(line, " queue_wait_us=")
		if !ok {
			continue
		}
		f, _, _ := strings.Cut(rest, " ")
		if us, err := strconv.ParseInt(f, 10, 64); err == nil {
			out = append(out, float64(us)/1e3)
		}
	}
	return out, nil
}

// sample is what the load generator recorded for one scheduled operation.
type sample struct {
	due, sent, done time.Time
	late            time.Duration
	status          int
	ok              bool
	elapsedUs       int64
	docWaitUs       int64
}

// replaceCurriculum atomically swaps the curriculum snapshot for the given
// version: write a temporary file beside the store, then rename it over
// the snapshot xqd serves.
func replaceCurriculum(runDir, storeDir string, data []byte) error {
	tmp := filepath.Join(runDir, "curriculum.xml.xqs.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(storeDir, "curriculum.xml.xqs"))
}

// drive sends the schedule open-loop: operation i is due at start + i/rate
// whatever happened before it, at most nproc connections carry the
// queries, and each latency runs from the due time.
func drive(cfg *config, p *xqdProc, client *http.Client, storeDir string, sd *serveDocs, evs []event, oracle *serveOracle) []sample {
	sz := cfg.sizes()
	samples := make([]sample, len(evs))
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection: a request that waits for one waits in this queue
	// and the wait counts in its latency.
	jobs := make(chan int, len(evs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &samples[i]
				ev := evs[i]
				s.sent = time.Now()
				if ev.write {
					s.ok = replaceCurriculum(cfg.runDir, storeDir, sd.curricula[ev.version]) == nil
					s.done = time.Now()
					continue
				}
				status, qr, err := get(client, queryURL(p.base, serveQuery(ev.class, ev.key, sz), ev.rel))
				s.done = time.Now()
				s.status = status
				s.elapsedUs, s.docWaitUs = qr.ElapsedUs, qr.DocWaitUs
				s.ok = err == nil && status == http.StatusOK && oracle.check(ev, qr.Result)
			}
		}()
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i := range evs {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / serveRate))
		time.Sleep(time.Until(due))
		samples[i].due = due
		samples[i].late = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// runServe measures xqd, built from the code under test, as its own
// process serving a store of .xqs snapshots under an open-loop mix of
// per-seed queries and occasional snapshot writes.
func runServe(cfg *config) (*result, error) {
	if cfg.xqd == "" {
		return nil, errors.New("serve-mix needs -xqd")
	}
	res := &result{metrics: map[string]float64{}}
	storeDir := filepath.Join(cfg.runDir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	sd, prep, err := prepareServe(cfg, storeDir)
	if err != nil {
		return nil, err
	}
	loadFor := cfg.duration()
	if cfg.trace {
		loadFor /= 2 // the other half replays queries in-process
	}
	evs := schedule(cfg.seed, max(1, int(math.Ceil(loadFor.Seconds()*serveRate))), cfg.sizes())
	oracle, err := newServeOracle(cfg, sd, evs)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.runDir, "xqd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
	}
	defer client.CloseIdleConnections()
	p, setups, opens, err := startReady(cfg, storeDir, logf, client)
	if err != nil {
		return nil, err
	}
	var t *tracer
	if cfg.trace {
		t = newTracer() // before the load, whose requests become spans too
	}
	ld, err := runLoad(cfg, p, client, logf, storeDir, sd, evs, oracle)
	client.CloseIdleConnections()
	p.stop()
	if err != nil {
		return nil, err
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["xmldoc.parse_ms"] = prep.parse
	m["store.save_ms"] = prep.save
	m["store.open_ms"] = median(opens)
	ld.report(res, evs)
	if !cfg.trace {
		return res, nil
	}
	if err := replay(cfg, res, t, storeDir, evs, oracle); err != nil {
		return nil, err
	}
	// The load's requests join the trace as client spans, each with the
	// server's evaluation time as a child ending at the response.
	for i, s := range ld.samples {
		if evs[i].write || s.status != http.StatusOK {
			continue
		}
		qid := int32(1<<20 + i) // its own track, apart from the replay's queries
		r := t.add("xqd.request", s.sent, s.done, -1, qid)
		t.add("xqd.eval", s.done.Add(-time.Duration(s.elapsedUs)*time.Microsecond), s.done, r, qid)
	}
	return res, writeTrace(cfg, t)
}

// newServeOracle computes the references for the schedule and, at the
// default seed, attaches the pinned digests.
func newServeOracle(cfg *config, sd *serveDocs, evs []event) (*serveOracle, error) {
	refs, err := serveRefs(cfg, sd, evs)
	if err != nil {
		return nil, err
	}
	oracle := &serveOracle{refs: refs}
	pins, err := loadPinned()
	if err != nil {
		return nil, err
	}
	if cfg.seed == pins.Seed && !cfg.tiny {
		oracle.pins = pins.Serve
	}
	if cfg.corrupt {
		for _, ev := range evs {
			if ev.write {
				continue
			}
			for v := 0; v < 2; v++ {
				k := refKey{ev.class, ev.key, v, ev.rel}
				if r, ok := refs[k]; ok {
					refs[k] = r + " corrupted"
				}
			}
			break
		}
	}
	return oracle, nil
}

// startReady starts xqd setupReps times and times each start, from process
// start to a first 200 on every document. It returns the last process,
// still running, with the start times and the cold document waits.
func startReady(cfg *config, storeDir string, log io.Writer, client *http.Client) (*xqdProc, []float64, []float64, error) {
	var setups, opens []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		p, err := startXQD(cfg.xqd, storeDir, log)
		if err != nil {
			return nil, nil, nil, err
		}
		open, err := waitReady(client, p)
		if err != nil {
			p.stop()
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, open)
		if rep == setupReps-1 {
			return p, setups, opens, nil
		}
		client.CloseIdleConnections()
		p.stop()
	}
}

// load is what one open-loop run observed: the client's samples, and xqd's
// CPU time, peak resident set, /metrics deltas and logged queue waits.
type load struct {
	samples []sample
	cpu     time.Duration
	peakMB  float64
	delta   map[string]float64
	waits   []float64
}

// runLoad drives the schedule against p and collects what xqd reports
// around it.
func runLoad(cfg *config, p *xqdProc, client *http.Client, logf *os.File, storeDir string, sd *serveDocs, evs []event, oracle *serveOracle) (*load, error) {
	logStart, err := logf.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	before, err := scrape(client, p.base)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	pid := p.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(pid)
	ld := &load{samples: drive(cfg, p, client, storeDir, sd, evs, oracle)}
	ld.peakMB = rss.finish(pid)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	ld.cpu = cpu1 - cpu0
	after, err := scrape(client, p.base)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	ld.delta = obs.DeltaSeries(before, after)
	if ld.waits, err = queueWaits(logf.Name(), logStart); err != nil {
		return nil, err
	}
	if len(ld.waits) == 0 {
		return nil, errors.New("xqd logged no queries during the load")
	}
	return ld, nil
}

// report sets the end-to-end metrics of the load and the per-layer metrics
// of xqd's own layers, read from its responses, /metrics and request log.
func (ld *load) report(res *result, evs []event) {
	var lat, evalMs, waitMs, overheadMs, lateMs []float64
	perClass := map[[2]int][]float64{}
	queries, failedQ := 0, 0
	seen := map[refKey]bool{}
	repeats := 0
	for i, s := range ld.samples {
		ev := evs[i]
		res.attempted++
		lateMs = append(lateMs, ms(s.late))
		if !s.ok {
			res.failed++
			if res.failed <= 5 {
				res.notef("FAIL op %d (%s, write=%v): status %d", i, serveKey(ev.class, ev.key, 0), ev.write, s.status)
			}
		}
		if ev.write {
			continue
		}
		queries++
		k := refKey{class: ev.class, key: ev.key, rel: ev.rel}
		if seen[k] {
			repeats++
		}
		seen[k] = true
		d := ms(s.done.Sub(s.due))
		if !s.ok {
			failedQ++
			d = failedMs
		} else {
			evalMs = append(evalMs, float64(s.elapsedUs)/1e3)
			waitMs = append(waitMs, float64(s.docWaitUs)/1e3)
			overheadMs = append(overheadMs, ms(s.done.Sub(s.sent))-float64(s.elapsedUs)/1e3)
		}
		lat = append(lat, d)
		eng := 0
		if ev.rel {
			eng = 1
		}
		perClass[[2]int{ev.class, eng}] = append(perClass[[2]int{ev.class, eng}], d)
	}
	// A class's latency is its geometric mean: each class mixes cheap cache
	// hits with misses that cost ten times more, and its median would jump
	// between the two whenever their shares come close.
	var classMeans []float64
	for c := 0; c < numClasses; c++ {
		for eng := 0; eng < 2; eng++ {
			if xs := perClass[[2]int{c, eng}]; len(xs) > 0 {
				classMeans = append(classMeans, geomean(xs))
			}
		}
	}
	p99 := percentile(lat, 0.99)
	repeatShare := ratio(float64(repeats), float64(queries))
	m := res.metrics
	m["req_ms.p50"] = finite(percentile(lat, 0.5))
	m["req_ms.p99"] = finite(p99)
	m["cell_ms.geomean"] = finite(geomean(classMeans))
	m["suite_s"] = finite(sum(classMeans) / 1e3)
	m["cpu_ms_per_query"] = ms(ld.cpu) / float64(max(queries, 1))
	m["peak_rss_mb"] = ld.peakMB
	m["xqd.eval_ms.p50"] = median(evalMs)
	m["xqd.doc_wait_ms.p50"] = median(waitMs)
	m["xqd.overhead_ms.p50"] = median(overheadMs)
	m["bench.late_ms.p99"] = percentile(lateMs, 0.99)
	m["bench.repeat_share"] = repeatShare
	m["admission.queue_wait_ms.p99"] = percentile(ld.waits, 0.99)
	m["admission.shed"] = ld.delta["xqd_admission_shed_total"]
	hitRatio := func(prefix string) float64 {
		h, miss := ld.delta[prefix+"_hits_total"], ld.delta[prefix+"_misses_total"]
		return ratio(h, h+miss)
	}
	m["plancache.plan_hit_ratio"] = hitRatio("xqd_plan_cache")
	m["plancache.result_hit_ratio"] = hitRatio("xqd_result_cache")
	m["plancache.result_invalidations"] = ld.delta["xqd_result_cache_invalidations_total"]
	m["store.cache_hit_ratio"] = hitRatio("xqd_cache")
	m["store.reload_ms"] = 1e3 * ratio(ld.delta["xqd_cache_load_seconds_total"], ld.delta["xqd_cache_loads_total"])
	m["store.invalidations"] = ld.delta["xqd_cache_invalidations_total"]

	tail := map[string]int{}
	for i, s := range ld.samples {
		if ev := evs[i]; !ev.write && (!s.ok || ms(s.done.Sub(s.due)) > p99) {
			tail[fmt.Sprintf("%s/rel=%v", classNames[ev.class], ev.rel)]++
		}
	}
	res.notef("serve-mix: %d operations at %.0f/s over %d connections (%d queries, %d writes), %d samples beyond p99; %d of %d queries failed",
		len(evs), serveRate, runtime.NumCPU(), queries, len(evs)-queries, queries-int(math.Ceil(0.99*float64(queries))), failedQ, queries)
	res.notef("  req_ms.p99 %.3f ms; repeat share %.3f over %d distinct (query, engine) pairs; %d request classes, geometric means %v ms",
		finite(p99), repeatShare, len(seen), len(classMeans), roundAll(classMeans))
	res.notef("  beyond p99 by class: %v", tail)
}

// replay evaluates the schedule's first queries in-process against the
// same store, alternating untraced passes through the public path with
// traced passes that time each layer, and reports the per-layer metrics
// of serve-mix's query mix uncached.
func replay(cfg *config, res *result, t *tracer, storeDir string, evs []event, oracle *serveOracle) error {
	sz := cfg.sizes()
	st, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		return err
	}
	defer st.Close()
	var qs []event
	for _, ev := range evs {
		if !ev.write && len(qs) < replayQueries {
			qs = append(qs, ev)
		}
	}
	ls := newLayerStats()
	var untraced, traced []float64
	deadline := time.Now().Add(cfg.duration() / 2)
	qid := int32(0)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		passMs := 0.0
		for _, ev := range qs {
			src := serveQuery(ev.class, ev.key, sz)
			runtime.GC()
			t0 := time.Now()
			var out string
			var err error
			if pass%2 == 1 {
				out, _, err = ls.evalLayered(t, qid, src, ev.rel, ifpxq.ModeAuto, st)
				qid++
			} else {
				out, _, err = evalPublic(src, ev.rel, ifpxq.ModeAuto, st)
			}
			passMs += ms(time.Since(t0))
			res.attempted++
			if err != nil || !oracle.check(ev, out) {
				res.failed++
				res.notef("FAIL replay %s rel=%v: %v", serveKey(ev.class, ev.key, 0), ev.rel, err)
			}
		}
		if pass%2 == 1 {
			traced = append(traced, passMs)
		} else {
			untraced = append(untraced, passMs)
		}
	}
	ls.report(res.metrics, t.selfTimes())
	res.metrics["bench.trace_overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)
	res.notef("  replay: %d untraced and %d traced in-process passes over the first %d queries", len(untraced), len(traced), len(qs))
	return nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(finite(x)*100) / 100
	}
	return out
}
