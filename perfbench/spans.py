"""Spans around calls into lapscat, for the benchmark's traced pass.

`Tracer.install` wraps the public functions of each lapscat module, plus
the few private ones that per-layer metrics count (`_bessel_i0`,
`_sl_core`, `_refined_geometry`), numpy's `leggauss` and the callables
of the selftest registry.  Every name bound to one of those functions
in any lapscat module is rebound to the wrapper, so a call counts
whichever module it goes through.  A span is `[name, start, end,
parent, note]`; spans stay in memory until the traced interpreter
writes them out after its timed window.

`layer_values` turns the spans of one pass into per-layer figures:
`<fn>_s` sums the spans of a function that are not nested in another
span of the same function, `_self_s` subtracts the time of child
spans, `_calls` counts spans, and the remaining figures sum or take
the largest of the notes recorded on a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

MODULES = (
    "kernels", "geometry", "boundary_ops", "data_operator",
    "reconstruction", "time_domain", "cli", "selftest",
)
PRIVATE = {
    "kernels": ("_bessel_i0",),
    "boundary_ops": ("_sl_core", "_refined_geometry"),
}
LEGGAUSS = "numpy.leggauss"
CHECK = "selftest.check"
WRITERS = (
    "reconstruction.write_indicator_csv",
    "reconstruction.write_indicator_pgm",
    "reconstruction.write_metrics_json",
)


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _pairs(x, y) -> int:
    return int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))


def _pair_temp_mb(geom, points) -> float:
    m = np.atleast_2d(np.asarray(points)).shape[0]
    return m * geom.n_nodes * 2 * 8 / 1e6


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


# span name -> note taken from the call's bound arguments
NOTES = {
    "kernels.bessel_k": lambda a: _size(a["z"]),
    "kernels._bessel_i0": lambda a: _size(a["z"]),
    "kernels.fundamental_solution": lambda a: _pairs(a["x"], a["y"]),
    "geometry.winding_fraction": lambda a: _pair_temp_mb(a["geom"], a["points"]),
    "geometry.distance_to_boundary": lambda a: _pair_temp_mb(a["geom"], a["points"]),
    "data_operator.write_matrix_csv": lambda a: _file_mb(a["path"]),
    "reconstruction.write_indicator_csv": lambda a: _file_mb(a["path"]),
    "reconstruction.write_indicator_pgm": lambda a: _file_mb(a["path"]),
    "reconstruction.write_metrics_json": lambda a: _file_mb(a["path"]),
}


class Tracer:
    """Records spans in memory; `install` patches them in."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                stack.pop()
                if note is not None:
                    rec[4] = note(sig.bind(*args, **kwargs).arguments)

        return traced

    def install(self) -> None:
        import numpy.polynomial.legendre as legendre

        mods = [importlib.import_module("lapscat." + m) for m in MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in PRIVATE.get(short, ()))
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        leg = legendre.leggauss
        wrappers[id(leg)] = (leg, self.wrap(LEGGAUSS, leg))

        targets = [m for n, m in sys.modules.items() if n == "lapscat" or n.startswith("lapscat.")]
        for mod in targets + [legendre]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        selftest = sys.modules["lapscat.selftest"]
        selftest.REGISTRY[:] = [
            tuple(self.wrap(CHECK, x) if callable(x) else x for x in entry)
            for entry in selftest.REGISTRY
        ]


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------


class _Pass:
    """Index over the spans of one traced operation."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.child_time[s[3]] += s[2] - s[1]
            self.by_name.setdefault(s[0], []).append(i)

    def ancestors(self, i: int):
        p = self.spans[i][3]
        while p >= 0:
            yield self.spans[p][0]
            p = self.spans[p][3]

    def named(self, names):
        names = (names,) if isinstance(names, str) else names
        return [i for n in names for i in self.by_name.get(n, ())]

    def inclusive(self, names) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(
            self.spans[i][2] - self.spans[i][1]
            for i in self.named(names)
            if not any(a in names for a in self.ancestors(i))
        )

    def self_time(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] - self.child_time[i] for i in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def calls_under(self, name: str, prefix: str) -> int:
        return sum(
            1 for i in self.named(name)
            if any(a.startswith(prefix) for a in self.ancestors(i))
        )

    def note_sum(self, names) -> float:
        return sum(self.spans[i][4] or 0 for i in self.named(names))

    def note_max(self, names) -> float:
        return max((self.spans[i][4] or 0 for i in self.named(names)), default=0.0)

    def top_level(self, since: float) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0 and s[1] >= since)


def _one_pass(p: _Pass) -> dict:
    return {
        "kernels.bessel_k_s": p.inclusive("kernels.bessel_k"),
        "kernels.bessel_k_points": p.note_sum("kernels.bessel_k"),
        "kernels.bessel_i0_points": p.note_sum("kernels._bessel_i0"),
        "kernels.fundamental_solution_s": p.inclusive("kernels.fundamental_solution"),
        "kernels.fundamental_solution_points": p.note_sum("kernels.fundamental_solution"),
        "geometry.make_curve_s": p.inclusive("geometry.make_curve"),
        "geometry.winding_fraction_s": p.inclusive("geometry.winding_fraction"),
        "geometry.distance_to_boundary_s": p.inclusive("geometry.distance_to_boundary"),
        "boundary_ops.assemble_M_s": p.inclusive("boundary_ops.assemble_M"),
        "boundary_ops.assemble_M_calls": p.calls("boundary_ops.assemble_M"),
        "boundary_ops.sl_core_s": p.inclusive("boundary_ops._sl_core"),
        "boundary_ops.sl_core_calls": p.calls("boundary_ops._sl_core"),
        "boundary_ops.refined_geometry_calls": p.calls("boundary_ops._refined_geometry"),
        "boundary_ops.invert_M_s": p.inclusive("boundary_ops.invert_M"),
        "boundary_ops.sign_check_s": p.inclusive("boundary_ops.sign_check"),
        "boundary_ops.estimate_lambda_bound_s": p.inclusive("boundary_ops.estimate_lambda_bound"),
        "boundary_ops.estimate_lambda_bound_assemblies": p.calls_under(
            "boundary_ops.assemble_M", "boundary_ops.estimate_lambda_bound"
        ),
        "boundary_ops.gram_identity_residual_s": p.inclusive("boundary_ops.gram_identity_residual"),
        "boundary_ops.jump_relation_residual_s": p.inclusive("boundary_ops.jump_relation_residual"),
        "data_operator.assemble_F_self_s": p.self_time("data_operator.assemble_F"),
        "data_operator.radiation_matrix_s": p.inclusive("data_operator.radiation_matrix"),
        "data_operator.write_matrix_csv_s": p.inclusive("data_operator.write_matrix_csv"),
        "data_operator.write_matrix_csv_mb": p.note_sum("data_operator.write_matrix_csv"),
        "reconstruction.sweep_self_s": p.self_time("reconstruction.sweep"),
        "reconstruction.inf_indicator_calls": p.calls("reconstruction.inf_indicator"),
        "reconstruction.inf_indicator_s": p.inclusive("reconstruction.inf_indicator"),
        "reconstruction.segment_self_s": p.self_time("reconstruction.segment"),
        "reconstruction.make_screen_test_vector_s": p.inclusive("reconstruction.make_screen_test_vector"),
        "reconstruction.write_s": p.inclusive(WRITERS),
        "reconstruction.written_mb": p.note_sum(WRITERS),
        "time_domain.verify_bound_s": p.inclusive("time_domain.verify_bound"),
        "time_domain.assemble_F_truncated_s": p.inclusive("time_domain.assemble_F_truncated"),
        "time_domain.leggauss_calls": p.calls_under(LEGGAUSS, "time_domain."),
        "cli.build_pipeline_s": p.inclusive("cli.build_pipeline"),
        "selftest.run_all_s": p.inclusive("selftest.run_all"),
        "selftest.checks_run": p.calls(CHECK),
    }


def layer_values(passes: list[tuple[list[list], float]]) -> dict:
    """Per-layer figures over several traced operations.

    `passes` holds, per operation, its spans and the start of its timed
    window.  Figures add up over operations, except the temporary size,
    which is the largest; `trace.top_level_s` sums the top-level spans
    that start inside the timed windows.
    """
    total: dict = {}
    pair_mb = 0.0
    top = 0.0
    for spans, since in passes:
        p = _Pass(spans)
        for k, v in _one_pass(p).items():
            total[k] = total.get(k, 0) + v
        pair_mb = max(pair_mb, p.note_max(("geometry.winding_fraction", "geometry.distance_to_boundary")))
        top += p.top_level(since)
    total["geometry.pair_temp_mb"] = pair_mb
    total["trace.top_level_s"] = top
    return total
