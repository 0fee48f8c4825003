"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lift_n300 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout, never from an installed copy. With `--trace 0` the
result carries the end-to-end metrics, with `--trace 1` the per-layer ones.
Each run also writes its provenance, failures and spans to
`perfbench/results/<run id>.jsonl`. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; one thread keeps runs steady on
# a shared machine and is never more than nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _import_package() -> None:
    """Import otsheaf from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "otsheaf" / "__init__.py").is_file():
        print(f"error: no otsheaf sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import otsheaf
    if Path(otsheaf.__file__).resolve().parent != SRC / "otsheaf":
        print(f"error: otsheaf imported from {otsheaf.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Content hash of the package sources; stands in for git outside a repo."""
    h = hashlib.sha256()
    for path in sorted((SRC / "otsheaf").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": platform.machine(),
    }


def _parse(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _write_results(run_id: str, prov: dict, result, metrics: dict,
                   extra: dict) -> Path:
    """Run header line, then one line per span, tagged with the run."""
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{run_id}.jsonl"
    tag = {"run": run_id, "workload": result.workload.name}
    header = dict(tag, kind="run", provenance=prov, metrics=metrics,
                  extra=extra, attempted=result.attempted,
                  failed=result.failed, correct=result.correct,
                  check_failures=result.check_failures, errors=result.errors,
                  fits=[vars(f) for f in result.fits],
                  warnings_outside_spans=result.warnings_outside,
                  wall_s=result.wall_s)
    traced = {f.fit: f.traced for f in result.fits}
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, s in enumerate(result.tracer.spans):
            fh.write(json.dumps(dict(
                tag, kind="span", id=i, name=s.name, parent=s.parent,
                stage=s.stage, fit=s.fit, traced=traced.get(s.fit),
                start=s.start, end=s.end, **s.info)) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    prov = provenance(args)
    run_id = (f"{wl.name}-seed{args.seed}-trace{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    result = harness.run_workload(wl, args.seed, args.seconds,
                                  trace=bool(args.trace))
    e2e = harness.end_to_end(result)
    quality = harness.quality(result)
    metrics = harness.per_layer(result) if args.trace else e2e
    path = _write_results(run_id, prov, result, metrics, dict(e2e, **quality))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"fits={len(result.fits)} wall={result.wall_s:.1f}s "
          f"epoch_ms_tail=p{wl.tail_pct:g} "
          + " ".join(f"{k}={v}" for k, v in prov.items()
                     if k not in ("workload", "seed", "trace")))
    for name, (value, unit) in {**metrics, **quality}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for err in result.errors:
        print(f"# failed: fit {err['fit']} {err['stage']}/{err['span']}: "
              f"{err['type']}: {err['message']}")
    for chk in result.check_failures:
        print(f"# check failed: fit {chk['fit']}: {chk['check']}")
    print(f"# spans and provenance: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
