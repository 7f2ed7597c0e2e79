"""The entry points the benchmark looks up, checked from the test suite.

perfbench/layertrace.py wraps program functions by name and
perfbench/workloads.py recomputes residuals from the operator's stored
diagonals.  Both are loaded here read-only, so a renamed or removed entry
point fails these tests and not only the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from bqcf import experiments, stability
from bqcf.blending import sample_beta, symmetric_profile
from bqcf.lattice import ChainConfig
from bqcf.operators import assemble_linear
from bqcf.potential import Morse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cubic_operator(morse, M=64, gamma=1.1):
    cfg = ChainConfig(M=M, N=2)
    beta = sample_beta(symmetric_profile(cfg, "cubic", 5), cfg)
    return assemble_linear("bqcf", morse, cfg, beta, gamma)


def test_tracer_patches_and_restores_every_entry_point(morse, tmp_path):
    tracer = load("layertrace").Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]
    op = cubic_operator(morse)
    f = np.sin(np.pi * op.config.positions())
    table = experiments.ResultTable(columns=["x", "f"], rows=[(0, 1.5), (1, -0.25)], metadata={})
    path = tmp_path / "t.csv"
    with tracer.patched():
        cubic_operator(morse)
        stability.coercivity_constant(op)
        experiments.solve_mean_zero(op, f)
        table.write_csv(path)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    # every factorization goes through a module global the tracer wraps
    assert tracer.calls["stability.splu"] > 0 and tracer.calls["experiments.splu"] == 1
    assert tracer.calls["operators.apply_values"] > 0
    # the tracer names PairPotential, an alias of Morse, so assembly's phi_xx calls count
    assert tracer.calls["potential.phi_xx"] > 0
    # the CSV text is built and written inside ResultTable.write_csv, the method the tracer times
    assert tracer.calls["experiments.write_csv"] == 1 and tracer.csv_bytes == path.stat().st_size


def test_plain_apply_matches_program_apply(morse):
    op = cubic_operator(morse)
    v = np.random.default_rng(5).standard_normal(op.config.n_atoms)
    want = op.apply_values(v)
    got = load("workloads")._apply_plain(op, v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sweep_ref_pass_checks(tmp_path):
    # the workload's own pass and checks, at its small size: a change to
    # critical_strain's calling contract fails here, not only in the benchmark
    workloads = load("workloads")
    workload = workloads.make("sweep-ref", 0, tmp_path, small=True)
    ops = []
    gamma_c = workload.run_pass(ops, lambda: None)
    assert ops and all(workload.check(gamma_c, len(ops)))


def test_reference_sweep_factorizations(tmp_path):
    workloads = load("workloads")
    workload = workloads.make("sweep-ref", 0, tmp_path)
    ops = []
    with workloads.counting_splu() as count:
        gamma_c = workload.run_pass(ops, lambda: None)
    assert gamma_c == workloads.SWEEP_GAMMA_C
    assert len(ops) == 199 and count[0] == 2


def test_reference_pass_builds_each_stretch_right_before_its_record(tmp_path, monkeypatch):
    # sweep-ref times an operation from its build to its record, so
    # critical_strain calls build_operator exactly once per report_sink call,
    # right before it and for that record's stretch.  A pass, the workload's
    # set-up included (its Morse check makes 2 phi_xx calls), keeps 199
    # records, 201 phi_xx calls and 2 factorizations
    workloads = load("workloads")
    phi_xx, phi_calls = Morse.phi_xx, []
    monkeypatch.setattr(Morse, "phi_xx", lambda self, r: phi_calls.append(1) or phi_xx(self, r))
    events = []
    with workloads.counting_splu() as count:
        workload = workloads.make("sweep-ref", 0, tmp_path)
        build, p = workload.build, workload.p

        def built(gamma):
            events.append(("build", gamma))
            return build(gamma)

        gamma_c = stability.critical_strain(
            built, p["dgamma"], p["gamma_max"], coarse=p["coarse"],
            report_sink=lambda rec: events.append(("record", rec.gamma)),
        )
    assert gamma_c == workloads.SWEEP_GAMMA_C
    assert events[0::2] == [("build", g) for _, g in events[1::2]]
    assert [kind for kind, _ in events[1::2]] == ["record"] * 199
    assert (len(events), len(phi_calls), count[0]) == (398, 201, 2)


def test_deform_cli_pass_at_seed_531(tmp_path):
    # seed 531 draws mu = -5.27911389637762e-05, a negative value in
    # exponent notation that the CLI must read as --mu's value
    workload = load("workloads").make("deform-cli", 531, tmp_path, small=True)
    ops = []
    results = workload.run_pass(ops, lambda: None)
    assert [code for _, code, _ in results] == [0, 0]
    assert all(workload.check(results, len(ops)))
