// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints every metric by name and unit, then, as the
// last line of standard output, one JSON result:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from spans the harness records around its
// calls into each module plus the counters those modules expose.
// BENCHMARK.json at the repository root lists both sets; README.md in
// this directory explains the workloads and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run, present for every
// workload; README.md gives each one's meaning per workload. Latency
// and wall time are printed, not gated: see README.md, "Noise".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0 for it.
var perLayer = []metricSpec{
	{"dnsbl.handle_p50_us", "us", "lower", 0},
	{"dnsbl.handle_p99_us", "us", "lower", 0},
	{"dnsbl.batch_size", "count", "higher", 0},
	{"dnsbl.fastpath_ratio", "ratio", "higher", 0},
	{"dnsbl.cache_hit_ratio", "ratio", "higher", 0},
	{"dnsbl.shed", "count", "lower", 0},
	{"dnsbl.dropped", "count", "lower", 0},
	{"dnsbl.socket_drops", "count", "lower", 0},
	{"dnsbl.setlist_ms", "ms", "lower", 0},
	{"reload_p50_ms", "ms", "lower", 0},
	{"reload_p90_ms", "ms", "lower", 0},
	{"tracker.observe_ms", "ms", "lower", 0},
	{"tracker.blocklist_ms", "ms", "lower", 0},
	{"tracker.score_ms", "ms", "lower", 0},
	{"blocklist.trie_build_ms", "ms", "lower", 0},
	{"blocklist.rules", "count", "lower", 0},
	{"proc.cpu_us_per_query", "us", "lower", 0},
	{"gen.busy_frac", "ratio", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.echo_qps_max", "1/s", "higher", 0},
	{"simnet.world_s", "s", "lower", 0},
	{"experiments.build_s", "s", "lower", 0},
	{"simnet.control_s", "s", "lower", 0},
	{"ipset.compress_s", "s", "lower", 0},
	{"ipset.image_s", "s", "lower", 0},
	{"ipset.blockcount_s", "s", "lower", 0},
	{"blocklist.sweepset_s", "s", "lower", 0},
	{"simnet.stream_s", "s", "lower", 0},
	{"simnet.spill_write_mib", "MiB", "lower", 0},
	{"blocklist.consume_s", "s", "lower", 0},
	{"blocklist.consume_ns_per_flow", "ns", "lower", 0},
	{"experiments.fig2_s", "s", "lower", 0},
	{"experiments.fig3_s", "s", "lower", 0},
	{"experiments.fig4_s", "s", "lower", 0},
	{"experiments.fig5_s", "s", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.parallel_eff", "ratio", "higher", 0},
	{"proc.alloc_mib", "MiB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.steal_pct", "%", "lower", 0},
	{"proc.calib_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// workloads maps each workload name to its runner. serve-hot is run by
// hand only and is not in BENCHMARK.json: its qps_max is bounded by
// loopback and the generator, not the server (README.md, "serve-hot").
var workloads = map[string]func(*options) (*report, error){
	"serve-hot":   func(o *options) (*report, error) { return runServe(o, false) },
	"serve-churn": func(o *options) (*report, error) { return runServe(o, true) },
	"sweep":       runSweep,
	"hypothesis":  runHypothesis,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // where scratch files (spill segments, traces) go
}

// report is what a workload run hands back.
type report struct {
	lines     []string           // the headline numbers, human readable
	e2e       map[string]float64 // endToEnd values
	layer     map[string]float64 // perLayer values
	attempted int64
	failed    int64
	problems  []string // failed output checks; empty means correct
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metricJSON is one value in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout to run in")
	flag.Parse()
	o.trace = *trace == 1
	run, ok := workloads[o.workload]
	if (!ok && o.workload != "all") || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s, or all), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll())
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	fp := machineFingerprint()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s rmem_max=%d\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.RmemMax)
	if strings.HasPrefix(o.workload, "serve") {
		fmt.Println("network: one dnsbl shard and one generator socket on 127.0.0.1 — traffic crosses loopback, not a link")
		fmt.Printf("socket receive buffers: %d bytes requested (dnsbld keeps the kernel default), %d reported by SO_RCVBUF under rmem_max=%d\n", serveRcvBuf, fp.RcvBuf, fp.RmemMax)
	}
	warnFingerprint(o.root, fp)

	steal0, total0 := readSteal()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	steal1, total1 := readSteal()
	stealPct := 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	rep.layer["proc.steal_pct"] = stealPct
	rep.linef("host steal: %.1f%% of this machine's CPU time during the run (the hypervisor running other guests); tails and rates suffer as it rises", stealPct)
	probe := median(calibSamples)
	speed := calibRef / probe
	rep.layer["proc.calib_ms"] = probe * 1e3
	rep.linef("machine speed: calibration probe median %.2f ms over %d samples, %.3f times the %.0f ms reference; setup_s and rate_per_s are reported at the reference speed (as measured: %.4g s and %.6g/s)",
		probe*1e3, len(calibSamples), speed, calibRef*1e3, rep.e2e["setup_s"], rep.e2e["rate_per_s"])
	rep.e2e["setup_s"] *= speed
	rep.e2e["rate_per_s"] /= speed
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	res := resultJSON{Correct: len(rep.problems) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]metricJSON{}}
	if !res.Correct {
		for _, p := range rep.problems {
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
	} else {
		specs, vals := endToEnd, rep.e2e
		if o.trace {
			specs, vals = perLayer, rep.layer
		}
		fmt.Println("metrics:")
		for _, m := range specs {
			v := vals[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
		}
		fmt.Println("output checks: pass")
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload, one process each, one after another, with
// this run's other flags, and returns 1 if any of them failed.
func runAll() int {
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// warnFingerprint records this machine's fingerprint under the build
// directory and flags a run whose fingerprint differs from the one
// recorded before: its numbers are not comparable with earlier ones. It
// flags and never gates.
func warnFingerprint(root string, fp fingerprint) {
	path := filepath.Join(root, ".bench_build", "fingerprint.json")
	cur, _ := json.Marshal(fp)
	if prev, err := os.ReadFile(path); err == nil && string(prev) != string(cur) {
		fmt.Printf("WARNING: machine fingerprint differs from the earlier run recorded in .bench_build: %s; compare these numbers only with runs from this machine\n", prev)
	}
	_ = os.MkdirAll(filepath.Dir(path), 0o755)
	_ = os.WriteFile(path, cur, 0o644)
}

// timeSetups runs setup at least three times and until two seconds of
// set-up have passed, at most nine times, and returns how long each
// took; setup_s is their median. teardown, called before every set-up
// after the first and outside the timing, releases the previous one.
// Each set-up starts from a freshly collected heap.
func timeSetups(setup, teardown func() error) ([]float64, error) {
	var took []float64
	total := 0.0
	for len(took) < 3 || (total < 2 && len(took) < 9) {
		if len(took) > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		debug.FreeOSMemory()
		calibSample()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		took = append(took, d)
		total += d
	}
	return took, nil
}

// scratchDir returns a fresh directory under the build directory for
// one run's files; the caller removes it.
func scratchDir(o *options, name string) (string, error) {
	base := filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-*")
}

// finishTrace writes the spans and prints self time per span name.
func finishTrace(o *options, tr *tracer) {
	if tr == nil {
		return
	}
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", o.workload, o.seed, time.Now().UnixNano()))
		if err := tr.WriteFile(path); err == nil {
			fmt.Printf("trace: %d spans written to %s\n", len(tr.Spans()), path)
		}
	}
	self := selfByName(tr.Spans())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span:")
	for _, n := range names {
		fmt.Printf("  %-28s %10.4f s\n", n, self[n])
	}
}
