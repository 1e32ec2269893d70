"""Run one benchmark workload and print its result as the last line of stdout.

Usage, from the repository root:

    python3 bench/run.py --workload train-d3 --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run. The `lhc` package is imported from `src/` next to this
directory; without it the run exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_lhc():
    """Import lhc from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import lhc
    except ImportError as exc:
        raise SystemExit(f"cannot import lhc from {SRC}: {exc}") from exc
    if not Path(lhc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lhc was imported from {lhc.__file__}, not from {SRC}")
    return lhc


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the workloads drive lhc from a
    # single thread, and on a shared two-core machine a second, spinning BLAS
    # thread only adds noise.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    lhc = import_lhc()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"workload": workload.name, "why": workload.why, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment()}), flush=True)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        result = workloads.run(workload, args.seed, args.seconds, bool(args.trace), workdir, lhc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
