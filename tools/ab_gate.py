#!/usr/bin/env python3
"""Same-runner A/B performance gate: a base checkout against this one.

    python3 tools/ab_gate.py <base-checkout>
    python3 tools/ab_gate.py --selftest

Builds both trees, then runs them in PAIRS interleaved pairs; the side that
runs first alternates. A run is every BENCHMARK.json workload through that
tree's fabricbench/run.py, plus that tree's `perf_core --quick --json`.

Each BENCHMARK.json end-to-end metric is compared by its median over the
pairs, in its `better` direction and within its `bound`. perf_core's
events_per_sec and path_graphs_per_sec are rates (inverse times): higher is
better, within wall_s's bound. A metric whose base runs spread wider than its
bound (interquartile range over median) is reported `unresolved`, not judged.

Exit status: 0 no regression; 1 a median regressed beyond its bound, a metric,
workload or row is missing, a result line is malformed or a run failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SECONDS = 3
SEED = 1
PERF_ROWS = ("events_per_sec", "path_graphs_per_sec")


class GateError(Exception):
    """A run the gate cannot judge: failed, malformed or incomplete."""


def parse_result_line(stdout, names):
    """Metric values named `names` from fabricbench's last output line."""
    lines = stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
        values = {n: float(metrics[n]["value"]) for n in names if n in metrics}
    except (IndexError, ValueError, KeyError, TypeError) as err:
        raise GateError("malformed result line: %r" % err) from None
    missing = sorted(set(names) - set(values))
    if missing:
        raise GateError("missing metric %s" % ", ".join(missing))
    return values


def parse_perf_rows(text, names):
    """perf_core --json rows named `names`, keyed by metric and params."""
    try:
        rows = {"%s%s" % (r["metric"], json.dumps(r["params"], sort_keys=True)):
                float(r["value"]) for r in json.loads(text) if r["metric"] in names}
    except (ValueError, KeyError, TypeError) as err:
        raise GateError("malformed perf_core report: %r" % err) from None
    missing = set(names) - {k.split("{")[0] for k in rows}
    if missing:
        raise GateError("missing perf_core row %s" % ", ".join(sorted(missing)))
    return rows


def judge(base, head, better, bound):
    """Verdict and figures for one metric's base and head samples."""
    b, h = statistics.median(base), statistics.median(head)
    q = statistics.quantiles(base, n=4, method="inclusive")
    spread = (q[2] - q[0]) / abs(b) if b else (0.0 if q[2] == q[0] else float("inf"))
    change = (h - b) / abs(b) if b else (0.0 if h == b else float("inf") * (h - b))
    worse = -change if better == "higher" else change
    if spread > bound:
        verdict = "unresolved"
    else:
        verdict = "REGRESSED" if worse > bound else "ok"
    return verdict, b, h, change, spread


def compare(base, head, specs):
    """Judges every (workload, metric) in `specs`; a key absent is missing."""
    rows, failed = [], False
    for key, (better, bound) in sorted(specs.items()):
        if not base.get(key) or not head.get(key):
            rows.append((key, "MISSING"))
            failed = True
            continue
        verdict = judge(base[key], head[key], better, bound)
        failed = failed or verdict[0] == "REGRESSED"
        rows.append((key,) + verdict)
    return rows, failed


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise GateError("%s exited %d in %s" % (" ".join(cmd), proc.returncode, cwd))
    return proc.stdout


def build(tree):
    bdir = os.path.join(tree, "build-ab")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", tree, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen, tree)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", bdir, "--target", "perf_core", "-j", jobs], tree)
    run([sys.executable, "fabricbench/run.py", "--selftest"], tree)  # builds .bench_build/


def run_tree(tree, workloads, names, samples):
    for w in workloads:
        out = run([sys.executable, "fabricbench/run.py", "--workload", w, "--seed", str(SEED),
                   "--seconds", str(SECONDS), "--trace", "0"], tree)
        for name, value in parse_result_line(out, names).items():
            samples.setdefault((w, name), []).append(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf_core.json")
        run([os.path.join(tree, "build-ab", "bench", "perf_core"), "--quick", "--json", path],
            tree)
        with open(path) as f:
            for key, value in parse_perf_rows(f.read(), PERF_ROWS).items():
                samples.setdefault(("perf_core", key), []).append(value)


def specs_for(bench, perf_keys):
    e2e = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    specs = {(w["name"], n): spec for w in bench["workloads"] for n, spec in e2e.items()}
    specs.update({("perf_core", k): ("higher", e2e["wall_s"][1]) for k in perf_keys})
    return specs


def report(rows):
    print("%-14s %-50s %12s %12s %8s %7s  %s" %
          ("workload", "metric", "base", "head", "change", "iqr", "verdict"))
    for row in rows:
        (w, m), rest = row[0], row[1:]
        if len(rest) == 1:
            print("%-14s %-50s %s" % (w, m, rest[0]))
            continue
        verdict, b, h, change, spread = rest
        print("%-14s %-50s %12.5g %12.5g %+7.1f%% %6.1f%%  %s" %
              (w, m, b, h, 100 * change, 100 * spread, verdict))


def gate(base_tree):
    with open(os.path.join(HEAD, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    names = [m["name"] for m in bench["end_to_end"]]
    trees = {"base": os.path.abspath(base_tree), "head": HEAD}
    for tree in trees.values():
        build(tree)
    samples = {"base": {}, "head": {}}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            sys.stderr.write("ab_gate: pair %d/%d, %s\n" % (i + 1, PAIRS, side))
            run_tree(trees[side], workloads, names, samples[side])
    perf_keys = {k for w, k in samples["base"] if w == "perf_core"}
    perf_keys |= {k for w, k in samples["head"] if w == "perf_core"}
    rows, failed = compare(samples["base"], samples["head"], specs_for(bench, perf_keys))
    report(rows)
    verdicts = [row[1] for row in rows]
    print("ab_gate: %d pairs, %d metrics: %s" % (PAIRS, len(rows), ", ".join(
        "%d %s" % (verdicts.count(v), v) for v in sorted(set(verdicts)))))
    return 1 if failed else 0


def selftest():
    line = '{"correct": 1, "metrics": {"wall_s": {"value": 1.5}, "ok_frac": {"value": 1}}}'
    assert parse_result_line("summary\n" + line + "\n", ["wall_s", "ok_frac"]) == \
        {"wall_s": 1.5, "ok_frac": 1.0}
    for bad in ["", "{}", '{"metrics": {"wall_s": {"value": "x"}}}', '{"metrics": [',
                '{"metrics": {"wall_s": 1.5}}', line + " trailing"]:
        expect_gate_error(lambda: parse_result_line(bad, ["wall_s"]), "malformed " + bad)
    expect_gate_error(lambda: parse_result_line(line, ["wall_s", "setup_s"]), "metric")
    rows = ('[{"bench": "perf_core", "metric": "events_per_sec", "value": 1.25e+06,'
            ' "params": {"window": "512", "events": "150000"}},'
            ' {"bench": "perf_core", "metric": "path_graphs_per_sec", "value": 9000,'
            ' "params": {}}]')
    assert parse_perf_rows(rows, PERF_ROWS) == {
        'events_per_sec{"events": "150000", "window": "512"}': 1.25e6,
        "path_graphs_per_sec{}": 9000.0}
    expect_gate_error(lambda: parse_perf_rows("[{\"metric\": }]", PERF_ROWS), "malformed")
    expect_gate_error(lambda: parse_perf_rows(rows, PERF_ROWS + ("x",)), "row")
    steady = [1.0, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99]
    # Direction: a lower-is-better time grew, a higher-is-better rate shrank.
    assert judge(steady, [2 * x for x in steady], "lower", 0.25)[0] == "REGRESSED"
    assert judge(steady, [x / 2 for x in steady], "lower", 0.25)[0] == "ok"
    assert judge(steady, [x / 2 for x in steady], "higher", 0.25)[0] == "REGRESSED"
    assert judge(steady, [2 * x for x in steady], "higher", 0.25)[0] == "ok"
    # Tolerance: 20% worse passes a 0.25 bound and fails a 0.1 bound.
    assert judge(steady, [1.2 * x for x in steady], "lower", 0.25)[0] == "ok"
    assert judge(steady, [1.2 * x for x in steady], "lower", 0.1)[0] == "REGRESSED"
    # A base that spreads wider than the bound is unresolved, not judged.
    assert judge([0.5, 1.0, 1.5, 0.6, 1.4], [3.0] * 5, "lower", 0.25)[0] == "unresolved"
    # A metric or workload absent from either side is a finding.
    specs = {("pingmesh_ft8", "wall_s"): ("lower", 0.25),
             ("churn_ft8", "wall_s"): ("lower", 0.25)}
    base = {("pingmesh_ft8", "wall_s"): steady, ("churn_ft8", "wall_s"): steady}
    rows, failed = compare(base, {("pingmesh_ft8", "wall_s"): steady}, specs)
    assert failed and ("churn_ft8", "wall_s") in [r[0] for r in rows if r[1] == "MISSING"]
    assert not compare(base, base, specs)[1]
    # The gate takes no tolerance or repetitions option.
    for flag in ["--tolerance", "--bound", "--pairs", "--repeats"]:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), flag, "1", "x"],
                              stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr, flag
    print("ab_gate selftest: PASS")
    return 0


def expect_gate_error(fn, what):
    try:
        fn()
    except GateError:
        return
    raise AssertionError("no GateError for " + what)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="path of the base checkout")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.base is None:
        parser.error("the base checkout is required")
    try:
        return gate(args.base)
    except GateError as err:
        print("ab_gate: %s" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
