"""Child-process entry points of the benchmark.

    python3 perfbench/probe.py setup <workload> <config.json|->
        import the package and build the workload's inputs, then exit; the
        parent times the process from launch to exit.

    python3 perfbench/probe.py trace <workload> <run_id> <spans.jsonl> <metrics.json> -- <cli args>
        run `spin1wave.cli.main(cli args)` in this process with every layer
        boundary wrapped in a span, then write the spans and the per-layer
        metrics.  The CLI's standard output goes to this process's stdout.

Both expect the thread variables and PYTHONPATH set by run.py.
"""
from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _fft_counts(args, result):
    data = args[0]
    return {
        "transforms": math.prod(data.shape[:-3]),
        "bytes": data.nbytes + result.nbytes,  # read once, written once
    }


def install(tracer: tracing.Tracer) -> None:
    """Replace the module attributes the package calls through with traced
    wrappers.  Every FFT of the package goes through fields.fftn/ifftn."""
    from spin1wave import algebra, cli, dynamics, em_coupling, fields, snapshots

    w = tracer.wrap
    fields.fftn = w("fields.fft", fields.fftn, _fft_counts)
    fields.ifftn = w("fields.fft", fields.ifftn, _fft_counts)
    fields.random_wave_field = w("fields.random_wave_field", fields.random_wave_field)
    algebra.build_matrix_set = w("algebra.matrix_set", algebra.build_matrix_set)

    base = dynamics.FreePropagator

    class TracedPropagator(base):
        def __init__(self, grid, mass):
            with tracer.span("dynamics.propagator_build") as rec:
                super().__init__(grid, mass)
                rec["bytes"] = self.evals.nbytes + self.evecs.nbytes

        def evolve(self, psi, t):
            with tracer.span("dynamics.evolve"):
                return super().evolve(psi, t)

    dynamics.FreePropagator = TracedPropagator
    dynamics.diagnostics = w("dynamics.diagnostics", dynamics.diagnostics)
    dynamics.continuity_residual = w("dynamics.continuity_residual",
                                     dynamics.continuity_residual)

    em = em_coupling
    em.random_smooth_external = w("em_coupling.external_build", em.random_smooth_external)
    em.ExternalField.from_fourier_series = staticmethod(
        w("em_coupling.external_build", em.ExternalField.from_fourier_series))
    em.apply_total_generator = w("em_coupling.generator", em.apply_total_generator)
    em._rk4_step = w("em_coupling.rk4_step", em._rk4_step)
    em._em_diagnostics = w("em_coupling.diagnostics", em._em_diagnostics)
    em.covariant_project = w("em_coupling.covariant_project", em.covariant_project,
                             lambda a, r: {"iterations": sum(r.iterations)})
    em.pi_dot = w("em_coupling.pi_dot", em.pi_dot)
    em.pi_vector = w("em_coupling.pi_vector", em.pi_vector)
    em.hermiticity_check = w("em_coupling.hermiticity_check", em.hermiticity_check)
    em.squared_hamiltonian_check = w("em_coupling.squared_check",
                                     em.squared_hamiltonian_check)
    em.constrained_square_check = w("em_coupling.constrained_check",
                                    em.constrained_square_check)
    em.landau_spectrum = w(
        "em_coupling.landau_spectrum", em.landau_spectrum,
        # computed: the dense complex Hamiltonian handed to eigvalsh
        lambda a, r: {"dim": len(r.e_squared), "bytes": 16 * len(r.e_squared) ** 2})
    em.landau_cluster_analysis = w("em_coupling.cluster_analysis",
                                   em.landau_cluster_analysis)

    snapshots.write_snapshot = w(
        "snapshots.write", snapshots.write_snapshot,
        lambda a, r: {"bytes": os.path.getsize(a[1])})
    snapshots.read_snapshot = w("snapshots.read", snapshots.read_snapshot)
    cli._write_csv = w("cli.csv_write", cli._write_csv)


def _setup(name: str, config_path: str) -> int:
    cfg = None
    if config_path != "-":
        with open(config_path) as fh:
            cfg = json.load(fh)
    workloads.build_inputs(workloads.WORKLOADS[name], cfg)
    return 0


def _trace(name, run_id, spans_path, metrics_path, argv) -> int:
    tracer = tracing.Tracer(run_id)
    with tracer.span("cli.import"):
        from spin1wave import algebra, cli, dynamics, em_coupling, fields, snapshots  # noqa: F401
    install(tracer)
    with tracer.span("cli.main"):
        code = cli.main(argv)
    if name == "free_evolve" and code == 0:
        # the read-back that the output check makes, traced
        snapshots.read_snapshot(argv[argv.index("--out") + 1])
    tracer.write(spans_path)
    with open(metrics_path, "w") as fh:
        json.dump(tracing.layer_metrics(tracer.spans), fh)
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        return _setup(*argv[1:])
    if argv[0] == "trace":
        sep = argv.index("--")
        return _trace(*argv[1:sep], argv[sep + 1:])
    raise SystemExit(f"unknown probe mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
