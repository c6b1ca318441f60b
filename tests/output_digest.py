"""Digest of what the CLI writes and prints on the benchmark's configs.

    PYTHONPATH=<tree>/src python tests/output_digest.py > digest.json

Runs ``python -m qhjlab.cli`` in a fresh process per case, in an empty
temporary directory with relative config and output paths, so that no path
reaches the outputs:
- each workload of perfbench/workloads.py (read, not changed) at seeds 1 and
  7, invocation indices 0 and 1, under its own subcommand;
- harmonic-scan's seed-1, index-0 config under every subcommand.

Prints sorted JSON, one entry per case: the exit code, the SHA-256 of stdout
followed by stderr, and the SHA-256 of every file in the output directory.
Two trees that print the same JSON give byte-identical results on these
cases.  pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

import qhjlab  # noqa: E402
from qhjlab.cli import PIPELINES  # noqa: E402

# the children import the qhjlab this process imported, also from a relative PYTHONPATH
SRC = str(Path(qhjlab.__file__).resolve().parents[1])


def cases():
    """{case name: (subcommand, config document)}."""
    found = {}
    for name, workload in WORKLOADS.items():
        for seed in (1, 7):
            for index in (0, 1):
                found[f"{name}/seed{seed}/index{index}/{workload.subcommand}"] = (
                    workload.subcommand, workload.config(seed, index))
    scan = WORKLOADS["harmonic-scan"].config(1, 0)
    for subcommand in PIPELINES:
        found.setdefault(f"harmonic-scan/seed1/index0/{subcommand}", (subcommand, scan))
    return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(subcommand: str, doc: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix="qhjlab-digest-") as work:
        work = Path(work)
        (work / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "qhjlab.cli", subcommand, "--config", "scenario.json",
             "--out", "out"], cwd=work, env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, check=False)
        out = work / "out"
        files = {} if not out.is_dir() else {
            path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())}
        return {"exit": done.returncode, "log_sha256": sha256(done.stdout + done.stderr),
                "files": files}


def main() -> int:
    result = {name: digest(*case) for name, case in cases().items()}
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
