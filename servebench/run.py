"""servebench entry point.

    python3 servebench/run.py --workload kb_reads --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end set, with ``--trace 1`` the
per-layer set, both as ``BENCHMARK.json`` names them (see README.md).
Lines before it are a human-readable report.  Scratch files live under
``.servebench/`` in the repository root; a run's temporary directory is
removed when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(prog="servebench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("kb_reads", "kb_materialize", "kb_live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_identity() -> str:
    """A digest of the program's and the benchmark's Python sources: the
    exact counts are only comparable between runs of the same code."""
    hasher = hashlib.sha256()
    files = sorted([*(ROOT / "src" / "repro").rglob("*.py"), *(ROOT / "servebench").glob("*.py")])
    for path in files:
        hasher.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def _repeat_check(key: str, record: dict) -> list[str]:
    """Compare this run's stream digest and exact counts with an earlier
    run of the same code, workload, seed and length (kept under
    ``.servebench/counts``)."""
    path = ROOT / ".servebench" / "counts" / f"{key}.json"
    problems = []
    if path.exists():
        earlier = json.loads(path.read_text())
        for name, value in record.items():
            if name in earlier and earlier[name] != value:
                problems.append(f"{name} differs from an earlier run ({key}): "
                                f"{earlier[name]} != {value}")
        record = {**earlier, **record}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds the chase's trigger order; a fixed
        # hash seed makes the exact counts repeat across processes.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}

    scratch = ROOT / ".servebench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    started = time.monotonic()
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        for server in run.servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    run.info["wall_s"] = round(time.monotonic() - started, 2)

    record = {"stream_digest": run.info.get("stream_digest")}
    if args.trace:
        record["counts"] = run.info["counts"]
    run.info["code_identity"] = code = code_identity()
    run.problems += _repeat_check(f"{args.workload}-{args.seed}-{args.seconds:g}-{code}", record)
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    if args.trace:
        values = {**{name: 0.0 for name in per_layer}, **run.layers,
                  "failed_frac": failed / attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": run.end_to_end[name], "unit": unit}
                   for name, unit in end_to_end.items()}

    print(f"# servebench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, metric in metrics.items():
        print(f"#   {name:38s} {metric['value']:14.4f} {metric['unit']}")
    if not args.trace:
        # Figures of the untraced run that belong to the per-layer set.
        for name, value in sorted(run.layers.items()):
            print(f"#   {name:38s} {value:14.4f} {per_layer[name]}  (per-layer)")
    print("# info " + json.dumps(run.info, sort_keys=True, default=str))
    for line in run.problems + run.failures[:20]:
        print(f"# FAIL {line}")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
