"""In-memory span tracer and the per-layer metrics derived from its spans.

A span is one call across a layer boundary: name, start, end, parent span
and run id, plus a few counts measured at the boundary (scalar FFTs, bytes,
CG iterations).  Spans are kept in a list and written out once, when the
traced run ends.  Nothing here imports spin1wave; `probe.py` installs the
wrappers on the package's module attributes.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, measure=None):
        """Return fn traced under `name`; measure(args, result) -> dict of
        counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rec.update(measure(args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run.  Times are summed seconds over
    the outermost spans of a name (a span nested in one of the same name
    is not counted twice); self time subtracts the child spans."""
    # Parents open before their children, so one pass in id order gives
    # every span the set of names above it.
    above: dict[int, frozenset] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        p = s["parent"]
        if p is None:
            above[s["id"]] = frozenset()
        else:
            above[s["id"]] = above[p] | {spans[p]["name"]}
            children.setdefault(p, []).append(s)

    def outer(name):
        return [s for s in spans if s["name"] == name and name not in above[s["id"]]]

    def total(name):
        return sum(_duration(s) for s in outer(name))

    def count(name):
        return len(outer(name))

    def self_time(name):
        return sum(
            _duration(s) - sum(_duration(c) for c in children.get(s["id"], ()))
            for s in outer(name)
        )

    ffts = [s for s in spans if s["name"] == "fields.fft"]
    gen_ffts = sum(
        s["transforms"] for s in ffts
        if "em_coupling.generator" in above[s["id"]]
    )
    steps = [
        s for s in outer("em_coupling.rk4_step")
        if "em_coupling.diagnostics" not in above[s["id"]]
    ]
    projections = outer("em_coupling.covariant_project")
    cg_iterations = sum(s["iterations"] for s in projections)
    generator_calls = count("em_coupling.generator")
    cg_s = total("em_coupling.covariant_project")

    def attr_sum(name, key):
        return sum(s[key] for s in outer(name))

    return {
        "cli.import_s": total("cli.import"),
        "cli.csv_write_s": total("cli.csv_write"),
        "algebra.matrix_set_s": total("algebra.matrix_set"),
        "fields.fft_calls": len(ffts),
        "fields.fft_transforms": sum(s["transforms"] for s in ffts),
        "fields.fft_s": sum(_duration(s) for s in ffts),
        "fields.fft_gb_computed": sum(s["bytes"] for s in ffts) / 1e9,
        "fields.random_state_s": total("fields.random_wave_field"),
        "dynamics.propagator_build_s": total("dynamics.propagator_build"),
        "dynamics.propagator_mb": attr_sum("dynamics.propagator_build", "bytes") / 1e6,
        "dynamics.evolve_calls": count("dynamics.evolve"),
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.diag_records": count("dynamics.diagnostics"),
        "dynamics.diag_self_s": self_time("dynamics.diagnostics"),
        "dynamics.continuity_s": total("dynamics.continuity_residual"),
        "em_coupling.external_build_s": total("em_coupling.external_build"),
        "em_coupling.generator_calls": generator_calls,
        "em_coupling.generator_s": total("em_coupling.generator"),
        "em_coupling.ffts_per_generator": gen_ffts / generator_calls if generator_calls else 0.0,
        "em_coupling.rk4_steps": len(steps),
        "em_coupling.rk4_step_s": sum(_duration(s) for s in steps),
        "em_coupling.diag_records": count("em_coupling.diagnostics"),
        "em_coupling.diag_record_s": total("em_coupling.diagnostics"),
        "em_coupling.cg_solves": 2 * len(projections),
        "em_coupling.cg_iterations": cg_iterations,
        "em_coupling.cg_s": cg_s,
        "em_coupling.cg_s_per_iter": cg_s / cg_iterations if cg_iterations else 0.0,
        "em_coupling.pi_calls": count("em_coupling.pi_dot") + count("em_coupling.pi_vector"),
        "em_coupling.hermiticity_s": total("em_coupling.hermiticity_check"),
        "em_coupling.squared_check_s": total("em_coupling.squared_check"),
        "em_coupling.constrained_check_s": total("em_coupling.constrained_check"),
        "em_coupling.landau_s": total("em_coupling.landau_spectrum"),
        "em_coupling.landau_dim": attr_sum("em_coupling.landau_spectrum", "dim"),
        "em_coupling.landau_matrix_mb": attr_sum("em_coupling.landau_spectrum", "bytes") / 1e6,
        "em_coupling.cluster_s": total("em_coupling.cluster_analysis"),
        "snapshots.write_s": total("snapshots.write"),
        "snapshots.write_mb": attr_sum("snapshots.write", "bytes") / 1e6,
        "snapshots.read_s": total("snapshots.read"),
    }
