#!/usr/bin/env python3
"""End-to-end benchmark of `psopt explore` and `psopt fuzz`.

Run from the root of a psopt source tree:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds psopt (Release) and the probe helper from source into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Inputs and trace files go to .bench_work/<workload>/.

--trace 0 runs the workload's psopt command repeatedly for --seconds and
reports the end-to-end metrics; --trace 1 makes one traced pass and
reports the per-layer metrics, also written to
.bench_work/<workload>/layers.json. Either way the outputs are checked
(perfbench/README.md lists the checks) and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True  # keep the benchmark directory clean

import scmodel  # noqa: E402

# Each explore workload is one litmus/ScaleWorkload shape; --seed is the
# generator seed. The generator's node counts do not depend on the seed,
# only the filler instructions do.
EXPLORE_WORKLOADS = {
    "scale-reduced": {"threads": 6, "filler": 320, "skeletons": 3,
                      "promises": False},
    "promise-certify": {"threads": 3, "filler": 25, "skeletons": 3,
                        "promises": True},
}
# The fuzz campaign is fixed: campaign cost varies about 9x between
# campaign seeds (README.md), so --seed does not select it.
FUZZ_SEED = 1
FUZZ_RUNS = 60
WORKLOADS = list(EXPLORE_WORKLOADS) + ["fuzz-campaign"]

# The verified passes a default fuzz campaign draws its pipelines from.
OPT_PASSES = ["constprop", "cse", "dce", "fenceweaken", "licm", "linv",
              "reorder", "rse", "simplifycfg"]

# The paper's Fig 15 program, the refinement oracle's negative control.
FIG15 = "tests/corpus/fig15_unsafe_dce.rtl"

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

PER_LAYER = [
    ("explore.search_s", "s"), ("explore.nodes", "count"),
    ("explore.unique_states", "count"), ("explore.transitions", "count"),
    ("explore.self_s", "s"), ("explore.canonicalize_s", "s"),
    ("explore.bytes_per_node", "B/node"),
    ("reduction.fused_steps", "count"), ("reduction.ample_nodes", "count"),
    ("reduction.sleep_skips", "count"), ("reduction.equiv_hits", "count"),
    ("ps.successors_s", "s"), ("ps.successors_calls", "count"),
    ("ps.successors_out", "count"), ("ps.cert_runs", "count"),
    ("ps.cert_states", "count"), ("ps.certcache_hits", "count"),
    ("ps.certcache_misses", "count"), ("ps.certcache_hit_rate", "ratio"),
    ("ps.cert_rejects", "count"), ("ps.cert_search_s", "s"),
    ("lang.parse_s", "s"), ("lang.print_s", "s"),
    ("analysis.footprint_s", "s"),
] + [("opt.%s_s" % p, "s") for p in OPT_PASSES] + [
    ("fuzz.runs", "count"), ("fuzz.skipped", "count"),
    ("fuzz.run_p50_ms", "ms"), ("fuzz.run_max_ms", "ms"),
    ("fuzz.oracle_s", "s"), ("fuzz.differential_s", "s"),
    ("fuzz.skipped_s", "s"),
    ("parallel.search_j2_s", "s"), ("parallel.steals", "count"),
    ("parallel.idle_waits", "count"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- processes --------------------------------------------------------------


class Result:
    def __init__(self, code, wall, rss_kib, out, err):
        self.code = code
        self.wall = wall
        self.rss_kib = rss_kib
        self.out = out
        self.err = err


def launch(cmd, cwd, stem, timeout=INVOCATION_TIMEOUT_S):
    """Runs cmd to completion with stdout/stderr in files; returns its exit
    code, wall-clock time from launch to exit, and peak RSS (wait4)."""
    out_path = cwd / (stem + ".out")
    err_path = cwd / (stem + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=err, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    return Result(proc.returncode, wall, usage.ru_maxrss,
                  out_path.read_text(errors="replace"),
                  err_path.read_text(errors="replace"))


def run_checked(cmd, cwd, what, timeout):
    """Runs a set-up step; its output goes to stderr."""
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=cwd,
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s: %s" % (what, e))
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))


# --- set-up -------------------------------------------------------------------


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(configured)
    return (path if path.is_absolute() else ROOT / path) / "cmake"


def configured_source(bdir):
    """The source directory a configured build tree was made from, or None
    when the tree holds no readable cache."""
    try:
        cache = (bdir / "CMakeCache.txt").read_text(errors="replace")
    except OSError:
        return None
    for line in cache.splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build():
    """Builds psopt and the probe (a no-op when up to date); returns the
    two binaries."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/psopt.cpp", FIG15):
        if not (ROOT / needed).is_file():
            raise BenchError("psopt sources not found: %s is missing"
                             % needed)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and configured_source(bdir) != BENCH:
        # `cmake --build` would rebuild the tree the cache was configured
        # from, which is another checkout's sources.
        log("perfbench: %s was configured for another source tree;"
            " rebuilding it" % bdir)
        shutil.rmtree(bdir)
    if not cache.is_file():
        run_checked(["cmake", "-S", BENCH, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"], ROOT, "cmake configure",
                    BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", bdir, "-j", jobs, "--target",
                 "psopt-cli", "perfbench-probe"], ROOT, "cmake build",
                BUILD_TIMEOUT_S)
    psopt = bdir / "psopt-tools" / "psopt"
    probe = bdir / "perfbench-probe"
    for binary in (psopt, probe):
        if not os.access(binary, os.X_OK):
            raise BenchError("build produced no %s" % binary)
    return psopt, probe


def prepare(workload, seed, probe):
    """Creates the workload's inputs in a fresh work directory."""
    work = ROOT / ".bench_work" / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    shutil.copy(ROOT / FIG15, work / "fig15.psopt")
    if workload in EXPLORE_WORKLOADS:
        shape = EXPLORE_WORKLOADS[workload]
        gen = launch([probe, "gen", seed, shape["threads"], shape["filler"],
                      shape["skeletons"]], work, "gen", timeout=60)
        if gen.code != 0:
            raise BenchError("input generation failed: " + gen.err)
        (work / "input.psopt").write_text(gen.out)
    return work


# --- checks -------------------------------------------------------------------


class Checks:
    """Collects failed correctness checks; every check is outside the timed
    region."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED: " + what)
        return ok


def explore_cmd(psopt, shape, jobs=1):
    cmd = [psopt, "explore", "input.psopt", "--jobs=%d" % jobs]
    if not shape["promises"]:
        cmd.append("--no-promises")
    return cmd


def behaviours(output):
    """The behaviour lines of `psopt explore` output (traces and verdict)."""
    return [line for line in output.splitlines()
            if line.startswith("[") or line.startswith("(")]


def check_explore_output(checks, parsed, nthreads, sc, label):
    """The verdict, the trace shape, and PS2.1 ⊇ SC on one explore output."""
    checks.expect(parsed["exhaustive"], label + ": verdict is (exhaustive)")
    checks.expect(not parsed["abort"] and not parsed["blocked"],
                  label + ": no abort or blocked traces")
    projected = set()
    for trace in parsed["done"]:
        outcome = scmodel.project_by_thread(trace, nthreads)
        if not checks.expect(outcome is not None,
                             label + ": trace %s has the 10*v+T shape"
                             % (trace,)):
            return
        projected.add(outcome)
    missing = sc - projected
    checks.expect(not missing, label + ": every SC outcome is a done trace"
                  " (%d of %d missing)" % (len(missing), len(sc)))


def explore_checks(checks, work, psopt, shape, reference):
    """Cross-engine checks on one explore workload, given the output of a
    one-job run: SC containment, --jobs=2 identity and, with promises, the
    promise-free subset. Returns the --jobs=2 result."""
    text = (work / "input.psopt").read_text()
    sc = scmodel.sc_outcomes(text)
    nthreads = len(scmodel.parse_program(text)[1])
    checks.expect(len(sc) > 1, "the SC model finds more than one outcome")
    parsed = scmodel.parse_explore_output(reference.out)
    check_explore_output(checks, parsed, nthreads, sc, "jobs=1")

    par = launch(explore_cmd(psopt, shape, jobs=2) + ["--stats-format=json"],
                 work, "jobs2")
    checks.expect(par.code == 0, "--jobs=2 exits 0")
    checks.expect(behaviours(par.out) == behaviours(reference.out),
                  "--jobs=2 prints the same behaviour set as --jobs=1")
    if shape["promises"]:
        free = launch([psopt, "explore", "input.psopt", "--no-promises"],
                      work, "nopromises")
        free_parsed = scmodel.parse_explore_output(free.out)
        checks.expect(free.code == 0 and free_parsed["exhaustive"],
                      "the promise-free run is exhaustive")
        checks.expect(free_parsed["done"] <= parsed["done"],
                      "promise-free behaviours are a subset of promise-on")
    return par


def negative_control(checks, work, psopt):
    """An unsound pass must be caught by the refinement oracle, and its
    sound counterpart must pass: Fig 15 under unsafe-dce and dce."""
    for pass_name, expect_holds in (("unsafe-dce", False), ("dce", True)):
        opt = launch([psopt, "optimize", "fig15.psopt",
                      "--passes=" + pass_name], work, "opt-" + pass_name)
        if not checks.expect(opt.code == 0, "optimize --passes=" + pass_name):
            continue
        target = "fig15-%s.psopt" % pass_name
        (work / target).write_text(opt.out)
        ref = launch([psopt, "refine", target, "fig15.psopt"], work,
                     "refine-" + pass_name)
        verdict = "refinement HOLDS" if expect_holds else "refinement FAILS"
        checks.expect(ref.code == (0 if expect_holds else 1)
                      and verdict in ref.out,
                      "Fig 15 under %s: %s" % (pass_name, verdict))
    # An independent engine path on the same program.
    one = launch([psopt, "explore", "fig15.psopt"], work, "fig15-j1")
    two = launch([psopt, "explore", "fig15.psopt", "--jobs=2"], work,
                 "fig15-j2")
    checks.expect(one.code == 0 and two.code == 0
                  and behaviours(one.out) == behaviours(two.out),
                  "Fig 15: --jobs=2 prints the same behaviour set")


def parse_fuzz_summary(output):
    for line in output.splitlines():
        if line.startswith("fuzz: runs="):
            return {k: v for k, v in (f.split("=", 1)
                                      for f in line.split()[1:])}
    return None


def fuzz_cmd(psopt, jobs=1):
    return [psopt, "fuzz", "--seed=%d" % FUZZ_SEED, "--runs=%d" % FUZZ_RUNS,
            "--jobs=%d" % jobs]


# --- end-to-end runs ----------------------------------------------------------


def measure(cmd, work, seconds):
    """Invokes cmd back to back for about `seconds` (at least
    MIN_INVOCATIONS times); stops before an invocation that would likely
    overrun the window."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(launch(cmd, work, "run%d" % len(results)))
        if results[-1].code != 0:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in results)
        if len(results) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            break
    return results


def end_to_end(workload, seed, seconds, psopt, work, checks):
    """Returns (metrics, attempted, failed, note)."""
    if workload in EXPLORE_WORKLOADS:
        shape = EXPLORE_WORKLOADS[workload]
        results = measure(explore_cmd(psopt, shape), work, seconds)
        ok = [r for r in results if r.code == 0]
        failed = len(results) - len(ok)
        checks.expect(bool(ok), "at least one explore invocation succeeded")
        if ok:
            first = behaviours(ok[0].out)
            checks.expect(all(behaviours(r.out) == first for r in ok),
                          "every invocation prints the same behaviour set")
            explore_checks(checks, work, psopt, shape, ok[0])
        attempted = len(results)
        note = "invocations=%d" % attempted
    else:
        results = measure(fuzz_cmd(psopt), work, seconds)
        attempted = failed = skipped = 0
        for r in results:
            summary = parse_fuzz_summary(r.out)
            if summary is None:
                attempted += FUZZ_RUNS
                failed += FUZZ_RUNS
                checks.expect(False, "fuzz printed its summary line")
                continue
            runs = int(summary["runs"])
            attempted += runs
            failed += int(summary["failures"])
            skipped += int(summary["skipped"])
            checks.expect(runs == FUZZ_RUNS, "fuzz reports runs=%d"
                          % FUZZ_RUNS)
            checks.expect(r.code == (1 if int(summary["failures"]) else 0),
                          "fuzz exit code matches its failure count")
        ok = [r for r in results if r.code == 0]
        negative_control(checks, work, psopt)
        note = "campaigns=%d runs=%d skipped=%d failures=%d" % (
            len(results), attempted, skipped, failed)
    # The host only ever adds time to an invocation (other tenants share
    # its caches and memory bandwidth), so the fastest invocation of a run
    # is the steadiest estimate of the command's own cost; README.md has
    # the measurements behind this choice.
    timed = ok or results
    metrics = {
        "wall_s": {"value": min(r.wall for r in timed), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss_kib for r in timed)
                        / 1024.0, "unit": "MB"},
    }
    note += " walls=" + ",".join("%.3f" % r.wall for r in results)
    return metrics, attempted, failed, note


# --- traced run ---------------------------------------------------------------


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def stats_json(output):
    """The `--stats-format=json` object: the last line of stdout."""
    lines = output.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"counters": {}, "timers": {}}


def timer_s(stats, name):
    return stats["timers"].get(name, {}).get("seconds", 0.0)


def timer_scopes(stats, name):
    return stats["timers"].get(name, {}).get("scopes", 0)


def counter_layers(layers, counters):
    for name in ("fused_steps", "ample_nodes", "sleep_skips", "equiv_hits"):
        layers["reduction." + name] = counters.get("reduction." + name, 0)
    hits = counters.get("certcache.hits", 0)
    misses = counters.get("certcache.misses", 0)
    layers.update({
        "ps.cert_runs": counters.get("cert.runs", 0),
        "ps.cert_states": counters.get("cert.states", 0),
        "ps.certcache_hits": hits,
        "ps.certcache_misses": misses,
        "ps.certcache_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "ps.cert_rejects": counters.get("machine.cert_rejects", 0),
    })


def search_spans(events):
    return [e for e in events
            if e.get("cat") == "explore" and e.get("name") == "search"]


def probe_json(result, checks, what):
    if not checks.expect(result.code == 0, what + " exits 0"):
        return None
    return json.loads(result.out.strip().splitlines()[-1])


def traced_explore(workload, seed, psopt, probe, work, checks, layers):
    shape = EXPLORE_WORKLOADS[workload]
    flags = [] if shape["promises"] else ["--no-promises"]
    cli = launch(explore_cmd(psopt, shape) + ["--stats-format=json",
                                              "--trace-jsonl=explore.jsonl"],
                 work, "traced")
    failed = int(not checks.expect(cli.code == 0, "traced explore exits 0"))
    stats = stats_json(cli.out)
    counters = stats["counters"]
    parsed = scmodel.parse_explore_output(cli.out)
    nodes = parsed["counters"].get("nodes", 0)
    spans = search_spans(read_jsonl(work / "explore.jsonl"))
    checks.expect(len(spans) == 1 and spans[0]["args"]["nodes"] == nodes
                  == counters.get("explore.nodes"),
                  "explore/search span, stdout and explore.nodes counter"
                  " agree on the node count")
    checks.expect(parsed["counters"].get("transitions")
                  == counters.get("explore.transitions"),
                  "stdout and explore.transitions counter agree")
    layers.update({
        "explore.search_s": timer_s(stats, "explore.search"),
        "explore.nodes": nodes,
        "explore.unique_states": parsed["counters"].get("unique_states", 0),
        "explore.transitions": parsed["counters"].get("transitions", 0),
        "explore.bytes_per_node": cli.rss_kib * 1024.0 / nodes if nodes
        else 0.0,
    })
    counter_layers(layers, counters)

    wrapped = probe_json(launch([probe, "explore", "input.psopt"] + flags,
                                work, "probe-explore"), checks,
                         "probe explore")
    if wrapped:
        checks.expect(wrapped["nodes"] == nodes
                      and wrapped["transitions"] == layers[
                          "explore.transitions"],
                      "the wrapped search visits the CLI's nodes and"
                      " transitions")
        checks.expect(wrapped["successors_calls"] <= nodes,
                      "successors() calls never exceed explore.nodes")
        checks.expect(wrapped["successors_out"] <= layers[
            "explore.transitions"],
            "successors() outputs never exceed explore.transitions")
        layers.update({
            "explore.self_s": wrapped["self_s"],
            "explore.canonicalize_s": wrapped["canonicalize_s"],
            "ps.successors_s": wrapped["successors_s"],
            "ps.successors_calls": wrapped["successors_calls"],
            "ps.successors_out": wrapped["successors_out"],
            "ps.cert_search_s": wrapped["cert_search_s"],
        })
    totals = probe_json(launch([probe, "totals", seed] + flags, work,
                               "probe-totals"), checks, "probe totals")
    if totals:
        checks.expect(totals["exhausted"]
                      and totals["independent_nodes"] == totals["nodes"],
                      "an independent search finds explore()'s node count"
                      " (Reduce=false)")
        checks.expect(totals["successors_calls"] == totals["nodes"]
                      - totals["independent_terminated"],
                      "successors() calls == nodes - terminated nodes"
                      " (Reduce=false)")
    lang = probe_json(launch([probe, "lang", "input.psopt"], work,
                             "probe-lang"), checks, "probe lang")
    if lang:
        layers.update({"lang.parse_s": lang["parse_s"],
                       "lang.print_s": lang["print_s"],
                       "analysis.footprint_s": lang["footprint_s"]})
    par = explore_checks(checks, work, psopt, shape, cli)
    par_stats = stats_json(par.out)
    layers.update({
        "parallel.search_j2_s": timer_s(par_stats, "explore.search"),
        "parallel.steals": par_stats["counters"].get("parallel.steals", 0),
        "parallel.idle_waits": par_stats["counters"].get(
            "parallel.idle_waits", 0),
    })
    return 1, failed, "nodes=%d" % nodes


def classify_fuzz(events):
    """Splits a campaign's explore/search spans by run (each fuzz/run
    instant closes its run) and by position: the first two of an ok run
    are the refinement oracle (source, target), the rest the differential
    re-explorations; every span of a skipped run is skipped time."""
    runs = sorted((e for e in events if e.get("cat") == "fuzz"
                   and e.get("name") == "run"), key=lambda e: e["ts_us"])
    spans = sorted(search_spans(events), key=lambda e: e["ts_us"])
    oracle = differential = skipped = 0.0
    prev = -1
    i = 0
    for run in runs:
        mine = []
        while i < len(spans) and prev < spans[i]["ts_us"] <= run["ts_us"]:
            mine.append(spans[i])
            i += 1
        prev = run["ts_us"]
        for pos, span in enumerate(mine):
            sec = span["dur_us"] * 1e-6
            if run["args"]["verdict"] == "skipped":
                skipped += sec
            elif pos < 2:
                oracle += sec
            else:
                differential += sec
    return runs, spans, oracle, differential, skipped


def traced_fuzz(psopt, probe, work, checks, layers):
    cli = launch(fuzz_cmd(psopt) + ["--stats-format=json",
                                    "--trace-jsonl=fuzz.jsonl"], work,
                 "traced")
    summary = parse_fuzz_summary(cli.out) or {}
    checks.expect(cli.code == 0 and summary.get("failures") == "0",
                  "traced fuzz campaign reports failures=0")
    stats = stats_json(cli.out)
    counters = stats["counters"]
    events = read_jsonl(work / "fuzz.jsonl")
    runs, spans, oracle, differential, skipped = classify_fuzz(events)
    checks.expect(len(runs) == FUZZ_RUNS == int(summary.get("runs", -1)),
                  "one fuzz/run record per run")
    nodes = counters.get("explore.nodes", 0)
    checks.expect(sum(r["args"]["nodes"] for r in runs) == nodes
                  == sum(s["args"]["nodes"] for s in spans),
                  "fuzz/run deltas, explore/search spans and the"
                  " explore.nodes counter agree")
    checks.expect(len(spans) == timer_scopes(stats, "explore.search"),
                  "one explore/search span per explore.search timer scope")
    skipped_runs = [r for r in runs if r["args"]["verdict"] == "skipped"]
    checks.expect(len(skipped_runs) == int(summary.get("skipped", -1)),
                  "skipped fuzz/run records match the summary")
    durations = sorted(r["args"]["duration_ms"] for r in runs)
    largest = max((s["args"]["nodes"] for s in spans), default=0)
    layers.update({
        "explore.search_s": timer_s(stats, "explore.search"),
        "explore.nodes": nodes,
        "explore.unique_states": sum(s["args"]["unique_states"]
                                     for s in spans),
        "explore.transitions": counters.get("explore.transitions", 0),
        # Peak memory over the largest single search of the campaign.
        "explore.bytes_per_node": cli.rss_kib * 1024.0 / largest if largest
        else 0.0,
        "fuzz.runs": len(runs),
        "fuzz.skipped": len(skipped_runs),
        "fuzz.run_p50_ms": statistics.median(durations) if durations else 0,
        "fuzz.run_max_ms": durations[-1] if durations else 0,
        "fuzz.oracle_s": oracle,
        "fuzz.differential_s": differential,
        "fuzz.skipped_s": skipped,
    })
    counter_layers(layers, counters)
    for p in OPT_PASSES:
        layers["opt.%s_s" % p] = timer_s(stats, "opt." + p)

    lang = probe_json(launch([probe, "lang-random", FUZZ_SEED, FUZZ_RUNS],
                             work, "probe-lang"), checks, "probe lang-random")
    if lang:
        layers.update({"lang.parse_s": lang["parse_s"],
                       "lang.print_s": lang["print_s"],
                       "analysis.footprint_s": lang["footprint_s"]})

    # The same campaign with its differential re-explorations at two jobs.
    par = launch(fuzz_cmd(psopt, jobs=2) + ["--stats-format=json",
                                            "--trace-jsonl=fuzz-j2.jsonl"],
                 work, "traced-j2")
    par_summary = parse_fuzz_summary(par.out) or {}
    checks.expect(par.code == 0 and par_summary.get("failures") == "0",
                  "the --jobs=2 campaign reports failures=0")
    par_stats = stats_json(par.out)
    j2 = [s for s in search_spans(read_jsonl(work / "fuzz-j2.jsonl"))
          if s["args"]["jobs"] == 2]
    checks.expect(bool(j2), "the --jobs=2 campaign explores at two jobs")
    layers.update({
        "parallel.search_j2_s": sum(s["dur_us"] for s in j2) * 1e-6,
        "parallel.steals": par_stats["counters"].get("parallel.steals", 0),
        "parallel.idle_waits": par_stats["counters"].get(
            "parallel.idle_waits", 0),
    })
    negative_control(checks, work, psopt)
    failed = int(summary.get("failures", FUZZ_RUNS))
    return len(runs) or FUZZ_RUNS, failed, "runs=%d skipped=%d" % (
        len(runs), len(skipped_runs))


def traced(workload, seed, psopt, probe, work, checks):
    layers = {name: 0 for name, _ in PER_LAYER}
    if workload in EXPLORE_WORKLOADS:
        attempted, failed, note = traced_explore(workload, seed, psopt, probe,
                                                 work, checks, layers)
    else:
        attempted, failed, note = traced_fuzz(psopt, probe, work, checks,
                                              layers)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in PER_LAYER}
    (work / "layers.json").write_text(json.dumps(metrics, indent=1) + "\n")
    return metrics, attempted, failed, note


# --- main -----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        build_start = time.perf_counter()
        psopt, probe = build()
        build_s = time.perf_counter() - build_start
        work = prepare(args.workload, args.seed, probe)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    # The build (or its up-to-date check) is not part of set-up: it does
    # not depend on the workload, and the first run of a tree compiles.
    setup_s = time.perf_counter() - _SCRIPT_START - build_s
    log("perfbench: build %.2f s, set-up %.3f s" % (build_s, setup_s))

    checks = Checks()
    if args.trace:
        metrics, attempted, failed, note = traced(
            args.workload, args.seed, psopt, probe, work, checks)
    else:
        metrics, attempted, failed, note = end_to_end(
            args.workload, args.seed, args.seconds, psopt, work, checks)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print("perfbench: workload=%s seed=%d %s" % (args.workload, args.seed,
                                                 note))
    for failure in checks.failures:
        print("perfbench: check failed: " + failure)
    print(json.dumps({"correct": not checks.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
