"""Digest of what the CLI writes and prints on the benchmark's configs.

    PYTHONPATH=<tree>/src python tests/output_digest.py > digest.json
    python tests/output_digest.py --compare old.json new.json

Runs ``python -m qhjlab.cli`` in a fresh process per case, in an empty
temporary directory with relative config and output paths, so that no path
reaches the outputs:
- each workload of perfbench/workloads.py (read, not changed) at seeds 1 and
  7, invocation indices 0 and 1, under its own subcommand;
- harmonic-scan's seed-1, index-0 config under every subcommand;
- under ``all``, the seed-1, index-0 configs of linear-report with an hbar
  scan over [-3.5, -0.5] (closed-form Airy pairs) and of free-write with a
  window that holds 11 samples (under a grid's 16).

Prints sorted JSON, one entry per case: the exit code, the SHA-256 of stdout
followed by stderr, and the SHA-256 of every file in the output directory.
Two trees that print the same JSON give byte-identical results on these
cases.  ``--compare`` reads two such digests and prints each case, file or
stream (exit code, stdout+stderr) whose digest differs, then how many cases
are identical; it exits 1 on any difference.  pytest does not collect this
file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import HBAR_SCAN, WORKLOADS  # noqa: E402


def cases():
    """{case name: (subcommand, config document)}."""
    from qhjlab.cli import PIPELINES

    found = {}
    for name, workload in WORKLOADS.items():
        for seed in (1, 7):
            for index in (0, 1):
                found[f"{name}/seed{seed}/index{index}/{workload.subcommand}"] = (
                    workload.subcommand, workload.config(seed, index))
    scan = WORKLOADS["harmonic-scan"].config(1, 0)
    for subcommand in PIPELINES:
        found.setdefault(f"harmonic-scan/seed1/index0/{subcommand}", (subcommand, scan))
    linear = WORKLOADS["linear-report"].config(1, 0)
    linear["uncertainty"] = {"delta_alpha": 1.0, "window": [-3.5, -0.5],
                             "hbar_scan": list(HBAR_SCAN)}
    found["linear-report/seed1/index0/all/scan"] = ("all", linear)
    narrow = WORKLOADS["free-write"].config(1, 0)
    narrow["uncertainty"]["window"] = [1.0, 1.004]
    found["free-write/seed1/index0/all/narrow-window"] = ("all", narrow)
    return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(subcommand: str, doc: dict, src: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="qhjlab-digest-") as work:
        work = Path(work)
        (work / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "qhjlab.cli", subcommand, "--config", "scenario.json",
             "--out", "out"], cwd=work, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, check=False)
        out = work / "out"
        files = {} if not out.is_dir() else {
            path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())}
        return {"exit": done.returncode, "log_sha256": sha256(done.stdout + done.stderr),
                "files": files}


def differences(old: dict, new: dict) -> list:
    """One line per case, file or stream whose digest differs between the
    digests ``old`` and ``new``."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: case only in {'new' if name in new else 'old'}")
            continue
        was, now = old[name], new[name]
        if was["exit"] != now["exit"]:
            lines.append(f"{name}: exit code {was['exit']} -> {now['exit']}")
        if was["log_sha256"] != now["log_sha256"]:
            lines.append(f"{name}: stdout+stderr")
        was, now = was["files"], now["files"]
        for file in sorted(was.keys() | now.keys()):
            if file not in was or file not in now:
                lines.append(f"{name}: {file} only in {'new' if file in now else 'old'}")
            elif was[file] != now[file]:
                lines.append(f"{name}: {file}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two digests instead of taking one")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        lines = differences(old, new)
        for line in lines:
            print(line)
        differing = {line.partition(": ")[0] for line in lines}
        total = len(old.keys() | new.keys())
        print(f"{total - len(differing)} of {total} cases identical")
        return 1 if lines else 0
    import qhjlab

    # the children import the qhjlab this process imported, also from a relative PYTHONPATH
    src = str(Path(qhjlab.__file__).resolve().parents[1])
    result = {name: digest(*case, src) for name, case in cases().items()}
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
