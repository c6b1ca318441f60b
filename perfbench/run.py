"""qhjlab benchmark: fresh CLI processes in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--seed N] [--seconds S]

One call measures one workload.  A single driver process starts one child at
a time (``perfbench/child.py``, which does what ``python -m qhjlab.cli``
does and also times the ``main`` call) for S seconds, each on a fresh config
drawn from (seed, invocation index), and checks every invocation's outputs.
``QHJLAB_THREADS`` and ``PYTHONDONTWRITEBYTECODE`` are removed from the
children's environment and BLAS keeps its default thread count.  Between
invocations, fresh interpreters are timed: ``import numpy, scipy.special``
after each one (the reference probe, which runs no qhjlab code) and
``import qhjlab.cli`` after every second one (the set-up probe).

Timings are reported in reference seconds: the raw median times
REFERENCE_S over the run's median reference probe.  On the 2-vCPU sandbox
the benchmark was written on, the speed of fresh processes drifts by up to
half over minutes; both probes and the invocations drift together, so the
scaled figures stay steady while the raw ones do not.  The raw medians are
printed alongside.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced invocations and prints the per-layer metrics;
the traced children wrap the layer modules from outside (perfbench/tracer.py).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record`` runs every workload both ways and writes perfbench/baseline.json:
the metrics, the run metadata and the per-workload predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, aggregate
from workloads import PREDICTIONS, SEED_DEPENDENT_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCHEMA_VERSION = "qhjlab.report/1"
MIN_INVOCATIONS = 4       # even a short run measures this many
MIN_SETUP_PROBES = 5
SETUP_CODE = "import qhjlab.cli"
REFERENCE_CODE = "import numpy, scipy.special"
REFERENCE_S = 0.4         # reference probe time that defines one reference second
CHILD_TIMEOUT_S = 120

THREADS_NOTE = (
    "QHJLAB_THREADS stays unset: the default serial hbar scan is what CLI users run. "
    "Threads buy nothing here because the scan loop holds the interpreter lock: "
    "harmonic-scan in-process on 2 vCPUs, 6 alternating runs each, took 1.72-2.62 s "
    "serial and 1.93-2.25 s with QHJLAB_THREADS=2.")


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def spawn(argv, env, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code or None on timeout,
    wall seconds, peak RSS in MiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except ChildTimeout:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return None, perf_counter() - start, 0.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def child_env() -> dict:
    """The caller's environment without QHJLAB_THREADS, with src/ importable, and
    with bytecode caches allowed, as an installed package has them."""
    env = dict(os.environ)
    env.pop("QHJLAB_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _count_rows(path: Path, n: int, x_bounds=None) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        first = last = None
        rows = 0
        for line in fh:
            if first is None:
                first = line
            last = line
            rows += 1
    if rows != n:
        return f"{path.name} has {rows} data rows, expected {n}"
    if x_bounds is not None:
        if not header.startswith("x,"):
            return f"{path.name} does not start with the x column"
        ends = (float(first.split(",", 1)[0]), float(last.split(",", 1)[0]))
        if any(abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(ends, x_bounds)):
            return f"{path.name} x column runs {ends}, expected {x_bounds}"
    return None


def gate(workload, code, stderr: str, out: Path):
    """(report, error): error is None when the invocation yielded a valid report."""
    if code is None:
        return None, f"no exit within {CHILD_TIMEOUT_S} s"
    if code not in (0, 2):
        return None, f"exit code {code}"
    if "Traceback" in stderr:
        return None, "traceback on stderr"
    files = frozenset(os.listdir(out)) if out.is_dir() else frozenset()
    if files != workload.expected_files():
        return None, f"wrote {sorted(files)}, expected {sorted(workload.expected_files())}"
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return None, f"report.json is not JSON: {exc}"
    if report.get("schema_version") != SCHEMA_VERSION:
        return None, f"schema {report.get('schema_version')!r}"
    if report.get("subcommand") != workload.subcommand:
        return None, f"subcommand {report.get('subcommand')!r}"
    checks, summary = report.get("checks", {}), report.get("summary", {})
    missing = workload.expected_checks() - set(checks)
    if missing:
        return None, f"checks missing: {sorted(missing)}"
    failing = sorted(name for name, c in checks.items() if c["status"] == "fail")
    for name, c in checks.items():
        if (c["status"] == "pass") != (c["max_residual"] <= c["tolerance"]):
            return None, f"check {name} status {c['status']} disagrees with its residual"
    expected_summary = {"total": len(checks), "passed": len(checks) - len(failing),
                        "failed": len(failing), "failing_checks": failing}
    if summary != expected_summary:
        return None, f"summary {summary} disagrees with checks"
    if code != (2 if failing else 0):
        return None, f"exit code {code} with {len(failing)} failing checks"
    if "fields.csv" in files:
        grid = workload.grid
        error = (_count_rows(out / "fields.csv", workload.n, (grid[0], grid[1]))
                 or _count_rows(out / "hierarchy.csv", workload.n, (grid[0], grid[1])))
        if error:
            return None, error
    return report, None


class Bench:
    """One benchmark run: a private work directory and the children's environment."""

    def __init__(self, workload):
        self.workload = workload
        self.env = child_env()
        self.work = HERE / f"_work-{os.getpid()}"
        self.work.mkdir()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def probe(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``python -c code``."""
        argv = [sys.executable, "-c", code]
        status, wall, _ = spawn(argv, self.env, self.work / "probe.out", self.work / "probe.err")
        if status != 0:
            raise RuntimeError(f"python -c {code!r} failed: "
                               + (self.work / "probe.err").read_text(encoding="utf-8"))
        return wall

    def invoke(self, seed: int, index: int, config_index: int, traced: bool) -> dict:
        case = self.work / str(index)
        case.mkdir()
        config, out = case / "config.json", case / "out"
        doc = self.workload.config(seed, config_index)
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = [sys.executable, str(CHILD)]
        if traced:
            argv += ["--trace", str(case / "spans.json")]
        argv += [self.workload.subcommand, "--config", str(config), "--out", str(out)]
        code, wall, rss = spawn(argv, self.env, case / "stdout", case / "stderr")
        stdout = (case / "stdout").read_text(encoding="utf-8")
        stderr = (case / "stderr").read_text(encoding="utf-8")
        report, error = gate(self.workload, code, stderr, out)
        result = {"traced": traced, "wall_s": wall, "rss_mb": rss, "report": report,
                  "error": error}
        if report is not None:
            last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
            if last.startswith("PERFBENCH "):
                result["run_s"] = json.loads(last[len("PERFBENCH "):])["run_s"]
            else:
                result["report"], result["error"] = None, "no run time on stdout"
        if traced and result["report"] is not None:
            result["trace"] = json.loads((case / "spans.json").read_text(encoding="utf-8"))
        shutil.rmtree(case)
        return result

    def loop(self, seed: int, seconds: float, trace: bool) -> tuple:
        """Closed loop: the next child starts when the previous one has exited.
        Returns (invocation results, {probe code: times}).  A traced run pairs
        each untraced invocation with a traced one on the same config and
        takes no probes."""
        results, probes = [], {SETUP_CODE: [], REFERENCE_CODE: []}
        self.probe(SETUP_CODE)  # untimed: the first import writes the bytecode caches
        deadline = perf_counter() + seconds
        while (len(results) < MIN_INVOCATIONS or perf_counter() < deadline
               or (not trace and len(probes[SETUP_CODE]) < MIN_SETUP_PROBES)):
            index = len(results)
            if trace:
                results.append(self.invoke(seed, index, index // 2, traced=index % 2 == 1))
                continue
            results.append(self.invoke(seed, index, index, traced=False))
            probes[REFERENCE_CODE].append(self.probe(REFERENCE_CODE))
            if index % 2:
                probes[SETUP_CODE].append(self.probe(SETUP_CODE))
        if trace and len(results) % 2:
            results.append(self.invoke(seed, len(results), len(results) // 2, traced=True))
        return results, probes


def verdict(workload, results) -> tuple:
    """(correct, failed): every invocation valid, and no check outside the
    workload's known failures failing."""
    failed = sum(1 for r in results if r["report"] is None)
    unexpected = set()
    for r in results:
        if r["report"] is not None:
            unexpected |= set(r["report"]["summary"]["failing_checks"]) - workload.known_failing
    for r in results:
        if r["error"]:
            print(f"invalid invocation: {r['error']}", file=sys.stderr)
    if unexpected:
        print(f"unexpected failing checks: {sorted(unexpected)}", file=sys.stderr)
    return failed == 0 and not unexpected, failed


def _median(values):
    return statistics.median(values) if values else 0.0


def _describe(samples) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"n={len(samples)}, quartiles {q1:.4g}..{q3:.4g}, max {max(samples):.4g}"


def end_to_end(probes, results) -> tuple:
    """(metrics, raw samples) of an untraced run; timings in reference seconds."""
    valid = [r for r in results if r["report"] is not None]
    samples = {"wall_s": [r["wall_s"] for r in valid], "setup_s": probes[SETUP_CODE],
               "run_s": [r["run_s"] for r in valid], "reference": probes[REFERENCE_CODE]}
    checks = [c for r in valid for c in r["report"]["checks"].values()]
    passed = [c for c in checks if c["status"] == "pass"]
    seed_free = [c["max_residual"] / c["tolerance"]
                 for r in valid for name, c in r["report"]["checks"].items()
                 if c["status"] == "pass" and c["tolerance"] > 0
                 and name not in SEED_DEPENDENT_CHECKS]
    scale = REFERENCE_S / _median(samples["reference"])
    return {
        **{name: scale * _median(samples[name]) for name in ("wall_s", "setup_s", "run_s")},
        "peak_rss_mb": _median([r["rss_mb"] for r in valid]),
        "check_pass_ratio": len(passed) / len(checks) if checks else 0.0,
        "valid_ratio": len(valid) / len(results),
        "worst_pass_ratio": max(seed_free, default=0.0),
    }, samples


def trace_metrics(workload, trace) -> dict:
    """Every per-layer quantity one traced invocation yields, by metric name."""
    stats = aggregate(trace)
    out = {}
    for name in trace["functions"]:
        entry = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field, value in entry.items():
            out[f"{name}.{field}"] = value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s["self_s"] for name, s in stats.items()
                                     if name.startswith(layer + "."))
    out.update(trace["counters"])
    solves = trace["solves"]
    distinct = len({key for _, key, _ in solves})
    steps = sum(s for _, _, s in solves)
    out["schrodinger.pairs_distinct"] = distinct
    out["schrodinger.distinct_ratio"] = distinct / len(solves) if solves else 0.0
    out["schrodinger.rk4_steps"] = steps
    out["schrodinger.us_per_rk4_step"] = (
        1e6 * out["schrodinger.solve_pair.self_s"] / steps if steps else 0.0)
    out["hierarchy.recurse.jet_ops"] = workload.jet_ops()
    return out


def per_layer(workload, results) -> dict:
    traced = [r for r in results if r["traced"] and r["report"] is not None]
    plain = [r for r in results if not r["traced"] and r["report"] is not None]
    if not traced or not plain:
        return {}, {}
    per_run = [trace_metrics(workload, r["trace"]) for r in traced]
    metrics = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
    metrics["trace.overhead_s"] = _median([t["run_s"] - p["run_s"]
                                           for p, t in zip(results[0::2], results[1::2])
                                           if p["report"] is not None and t["report"] is not None])
    return metrics, {}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload)
    try:
        results, probes = bench.loop(seed, seconds, trace)
    finally:
        bench.close()
    correct, failed = verdict(workload, results)
    section = "per_layer" if trace else "end_to_end"
    values, samples = per_layer(workload, results) if trace else end_to_end(probes, results)
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]}
               for m in spec()[section]}
    traced = sum(1 for r in results if r["traced"])
    print(f"{workload.name}: seed {seed}, {len(results)} invocations ({traced} traced), "
          f"{len(probes[SETUP_CODE])} set-up and {len(probes[REFERENCE_CODE])} reference probes; "
          "medians over valid invocations")
    for name, m in metrics.items():
        detail = ""
        if name in samples:
            detail = f"  (raw median {_median(samples[name]):.4g} s, {_describe(samples[name])})"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{detail}")
    if "reference" in samples:
        print(f"  reference probe: raw median {_median(samples['reference']):.4g} s, "
              f"{_describe(samples['reference'])}")
    if trace and values:
        spans = sorted(((v, k[:-len(".self_s")]) for k, v in values.items()
                        if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        print("  largest self time: " + ", ".join(f"{k} {v:.3g} s" for v, k in spans[:3]))
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    return result, {name: _median(values) for name, values in samples.items()}


def _versions(env) -> dict:
    code = ("import json, platform, numpy, scipy; "
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
            "print(json.dumps({'python': platform.python_version(), "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
            "'blas': blas.get('name'), 'blas_version': blas.get('version')}))")
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True).stdout)


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(seed: int, seconds: float):
    env = child_env()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    whys = {w["name"]: w["why"] for w in spec()["workloads"]}
    baseline = {
        "command": f"python3 perfbench/run.py --record --seed {seed} --seconds {seconds:g}",
        "metadata": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            **_versions(env),
            "git_commit": _git_commit(),
            "seed": seed,
            "seconds": seconds,
            "child_env": {"PYTHONPATH": "src", "QHJLAB_THREADS": None,
                          "PYTHONDONTWRITEBYTECODE": None,
                          **{k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
            "loop": "closed, one client: one child at a time",
            "reference_probe": {"code": REFERENCE_CODE, "reference_s": REFERENCE_S},
            "src_lines": src_lines,
            "threads": THREADS_NOTE,
        },
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        plain, raw = measure(workload, seed, seconds, trace=False)
        traced, _ = measure(workload, seed, seconds, trace=True)
        baseline["workloads"][name] = {
            "why": whys[name], "subcommand": workload.subcommand,
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["metrics"], "raw_medians_s": raw,
            "per_layer": traced["metrics"]}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n",
                                        encoding="utf-8")
    print(f"wrote {HERE / 'baseline.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run every workload both ways and write perfbench/baseline.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qhjlab" / "cli.py").is_file():
        print(f"no qhjlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required unless --record is given")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.record:
        record(args.seed, seconds)
        return 0
    result, _ = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
