"""Benchmark for codisplay: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload desk-lp --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` and never from an installed copy.  Set-up (instance generation,
instance files, reference relaxations) is done in one part per unit of work
and timed apart from the work; the closed loop is in ``harness.py``, the workloads and their
checks in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps the program's public functions (``tracing.py``) and reports its
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run's record (metadata, output digest, failure reasons) is printed just
above it and written, with the spans of a traced run, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["desk-lp", "round-n200", "cli-compare"]


def _cap_threads() -> int:
    """Limit BLAS/OpenMP pools to the cores this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    nproc = nproc or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "codisplay" / "__init__.py").is_file():
        raise ImportError(f"no codisplay package under {src}")
    sys.path.insert(0, str(src))
    import codisplay

    if Path(codisplay.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"codisplay imported from {codisplay.__file__}, not {src}")
    import scipy.optimize  # noqa: F401  (the reference solver)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(args, nproc: int) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": nproc,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    nproc = _cap_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    if set(record["metrics"]) != set(expected):
        print(f"error: metrics {sorted(record['metrics'])} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    record = {**_metadata(args, nproc), **record,
              "metrics": {name: record["metrics"][name] for name in expected}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {record['attempted']} items "
          f"in {record['units']} units, {record['item_s']:.2f} s of item time, "
          f"{record['failed']} failed ({record['wrong']} wrong)")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    print(f"  digest {record['digest']}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
