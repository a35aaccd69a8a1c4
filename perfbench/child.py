"""Run one benchmark operation in this (fresh) interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the operation and where to write its result.  The result
holds two clock readings on the system-wide monotonic clock, taken when
lapscat is imported and the inputs are loaded (`ready`) and when the
work is done (`done`), the interpreter's peak resident set, and what the
operation returned.  Everything after `done` (writing the result, in a
traced pass the spans, and the drift reference) stays out of the timed
window.  Checks of the outputs are made by the calling process, not here.
"""

from __future__ import annotations

import json
import sys
import time


def prepare_cli(spec: dict):
    from lapscat.cli import main

    return lambda: main(spec["argv"])


def _curve(g: dict):
    from lapscat.geometry import make_curve

    return make_curve(g["shape"], g["params"], n_nodes=g["n_nodes"])


def prepare_spectra(spec: dict):
    """assemble_F on one geometry over several lambda; the magnitude-
    sorted spectrum of each F (and the sign class of M when asked)."""
    from lapscat.boundary_ops import BoundaryCondition, assemble_M, sign_check
    from lapscat.data_operator import assemble_F
    from lapscat.geometry import make_probe
    from lapscat.kernels import SpectralParam

    geom = _curve(spec["geometry"])
    p = spec["probe"]
    probe = make_probe(p["center"], p["radius"], p["n_points"])
    bc = BoundaryCondition(spec["bc"])
    lams = [SpectralParam(v) for v in spec["lambdas"]]

    def run():
        out = []
        for lam in lams:
            row = {"lambda": lam.lam}
            if spec["sign_check"]:
                row["sign"] = sign_check(assemble_M(bc, geom, lam)).classification
            row["eigenvalues"] = assemble_F(bc, geom, probe, lam).eigenvalues
            out.append(row)
        return out

    return run


def prepare_lambda_bound(spec: dict):
    """estimate_lambda_bound for each (geometry, theta) case."""
    from lapscat.boundary_ops import BoundaryCondition, estimate_lambda_bound

    cases = [(_curve(c["geometry"]), BoundaryCondition("theta", c["theta"]))
             for c in spec["cases"]]

    def run():
        out = []
        for geom, bc in cases:
            bound, report = estimate_lambda_bound(bc, geom)
            out.append({"bound": bound, "transition": report.get("transition")})
        return out

    return run


PREPARE = {
    "cli": prepare_cli,
    "spectra": prepare_spectra,
    "lambda_bound": prepare_lambda_bound,
}


def _peak_rss_mb() -> float:
    # VmHWM belongs to this interpreter's address space; ru_maxrss would
    # also carry the parent's peak across fork and exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reference_s() -> float:
    """Best of three timings of a fixed computation of the kind lapscat
    spends its time on (Bessel functions over an array, a small
    eigenproblem, a Python loop), independent of lapscat.  It moves
    when the machine speeds up or slows down, and the run records it
    beside its figures so that a slow spell can be seen."""
    import numpy as np
    from scipy.special import iv, kv

    x = np.linspace(0.01, 20.0, 20000)
    a = np.cos(np.add.outer(np.arange(120.0), np.arange(120.0)))
    best = float("inf")
    for _ in range(3):
        t = time.monotonic()
        kv(1, x)
        iv(0, x)
        np.linalg.eigvalsh(a)
        sum(i * i for i in range(50000))
        best = min(best, time.monotonic() - t)
    return best


def _plain(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        # before any lapscat name is imported here, so the imports below
        # bind the wrapped functions
        import spans

        tracer = spans.Tracer()
        tracer.install()
    run = PREPARE[spec["kind"]](spec)
    import lapscat

    ready = time.monotonic()
    error = None
    refused = False
    value = None
    try:
        value = run()
    except Exception as exc:  # the operation failed; the caller counts it
        from lapscat.errors import NumericalError

        error = f"{type(exc).__name__}: {exc}"
        refused = isinstance(exc, NumericalError)
    done = time.monotonic()
    rss_mb = _peak_rss_mb()
    reference_s = _reference_s()

    result = {
        "ready": ready,
        "done": done,
        "rss_mb": rss_mb,
        "reference_s": reference_s,
        "value": value,
        "error": error,
        "refused": refused,
        "lapscat": lapscat.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, default=_plain)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
