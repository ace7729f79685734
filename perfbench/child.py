"""One workload process: set up, then run whole rounds of CLI verbs.

Started by run.py with a plan file (JSON) and the monotonic clock reading
taken just before the start.  Set-up is the time from that reading to
validated configs: interpreter start, `import setidetect.cli` and
`load_config` of every operation's config.  With "probe" set the process
stops there.  Otherwise it runs rounds, each round every operation once
through `setidetect.cli.main`, in a closed loop of whole rounds that fit
the plan's seconds, and writes its result file.  Peak memory is read after
the first round: set-up plus one pass of the workload, as a user runs it.

With "trace" set, rounds alternate between untraced and traced (spans on),
after one untraced warm-up round that is not counted.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds NumPy and SciPy load."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "env": {
            k: os.environ.get(k)
            for k in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "PYTHONHASHSEED",
            )
        },
        "machine": platform.machine(),
    }


def _run_op(cli, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
        dt = time.perf_counter() - t0
    files = [Path(p) for p in out.getvalue().split()] if rc == 0 else []
    manifest = [f for f in files if f.name == "manifest.json"]
    # ROC curves delivered: one per roc_*.csv file, one per compare.csv row
    curves = sum(f.name.startswith("roc_") for f in files) + sum(
        len(f.read_text().splitlines()) - 1 for f in files if f.name == "compare.csv"
    )
    return {
        "rc": rc,
        "seconds": dt,
        "curves": int(curves),
        "bytes": sum(f.stat().st_size for f in files),
        "files": [str(f) for f in files],
        "manifest_sha256": hashlib.sha256(manifest[0].read_bytes()).hexdigest()
        if manifest
        else None,
        "stderr": err.getvalue().strip()[:500],
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    import setidetect.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"setidetect was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1
    for op in plan["ops"]:
        cli.load_config(json.loads(Path(op["config"]).read_text()))
    setup_s = (time.monotonic_ns() - int(sys.argv[2])) * 1e-9
    result = {"setup_s": setup_s}
    if plan.get("probe"):
        Path(plan["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if plan["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    rounds = []
    min_rounds = 3 if tracer else 2
    start = time.perf_counter()
    # whole rounds that fit the window: start another only if a round of
    # the median length so far still ends inside it
    while len(rounds) < min_rounds or time.perf_counter() - start + statistics.median(
        r["wall_s"] for r in rounds
    ) <= plan["seconds"]:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.run_id = len(rounds)
            tracer.install()
        try:
            ops = [_run_op(cli, op) for op in plan["ops"]]
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(
            {"traced": traced, "wall_s": sum(op["seconds"] for op in ops), "ops": ops}
        )
        if len(rounds) == 1:
            # a user runs each verb once in a fresh process; later rounds
            # only add heap fragmentation
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(rounds=rounds, peak_rss_mb=peak, context=context())
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds[1:] if not r["traced"]]
        layers = layer_metrics(tracer.spans, len(traced))
        wall = sum(r["wall_s"] for r in traced) / len(traced)
        plain = sum(r["wall_s"] for r in untraced) / len(untraced)
        layers.update(
            {
                "cli.bytes_written": sum(op["bytes"] for r in traced for op in r["ops"])
                / len(traced),
                "trace.wall_s": wall,
                "trace.untraced_wall_s": plain,
                "trace.overhead_s": wall - plain,
                "trace.unattributed_s": wall
                - sum(v for k, v in layers.items() if k.endswith(".self_s")),
            }
        )
        result["layers"] = layers
        tracer.write(plan["trace_file"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
