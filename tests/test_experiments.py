import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import at, csv_text, dense_matrix

from bqcf import experiments, stability
from bqcf.blending import constant_profile, sample_beta, symmetric_profile
from bqcf.cli import main
from bqcf.experiments import (
    ResultTable,
    external_force,
    run_coercivity,
    run_consistency_sweep,
    run_critical_strain_table,
    run_scaling,
    solve_deformation,
    solve_mean_zero,
)
from bqcf.lattice import ChainConfig
from bqcf.operators import BandedPeriodicOperator, assemble_linear
from bqcf.potential import Morse, MorseParams
from bqcf.stability import StrainSweepError, critical_strain


# ------------------------------------------------------------ result tables


def parse_csv(text):
    """The ResultTable a CSV was written from, metadata values as text and
    each cell as an int, a float or text, whichever parses first."""

    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text

    metadata, columns, rows = {}, None, []
    for line in filter(None, text.splitlines()):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(tuple(cell(c) for c in line.split(",")))
    return ResultTable(columns=columns, rows=rows, metadata=metadata)


def test_csv_roundtrip(tmp_path):
    table = ResultTable(
        columns=["name", "value"],
        rows=[("alpha", 0.1234567890123456789), ("beta", -3.0)],
        metadata={"M": 8, "note": "x = 1"},
    )
    text = table.to_csv_text()
    back = parse_csv(text)
    assert back.columns == table.columns
    assert back.rows[0][1] == table.rows[0][1]
    assert back.rows[1][1] == table.rows[1][1]
    assert back.metadata["M"] == "8"
    path = tmp_path / "t.csv"
    table.write_csv(path)
    assert parse_csv(path.read_text()).rows == back.rows


def test_row_width_validation():
    with pytest.raises(ValueError):
        ResultTable(columns=["a", "b"], rows=[(1.0,)], metadata={})


@pytest.mark.parametrize(
    "rows, metadata",
    [
        ([(None,), (math.nan,)], {}),  # mixed columns give no float array
        ([("x",), (math.inf,)], {}),
        ([(1.0,)], {"gaps": ("x", -math.inf)}),
        ([(1.0,)], {"gap": math.nan}),
        ([(1,), (math.nan,)], {}),
    ],
)
def test_nan_or_infinity_is_rejected(rows, metadata):
    with pytest.raises(FloatingPointError):
        ResultTable(columns=["a"], rows=rows, metadata=metadata)


def test_failed_write_keeps_the_existing_file(tmp_path):
    class NoText:
        def __str__(self):
            raise RuntimeError("no text")

    path = tmp_path / "t.csv"
    path.write_text("kept\n")
    with pytest.raises(RuntimeError):
        ResultTable(columns=["a"], rows=[(NoText(),)], metadata={}).write_csv(path)
    assert path.read_text() == "kept\n"


SCENARIO_TABLES = {  # the README's two deform commands, and each other scenario at a small size
    "deform-sine": lambda: solve_deformation("sine", M=2000, N=2, family="cubic", L=5),
    "deform-gaussian": lambda: solve_deformation("gaussian", amp_scale=0.2, mu=0.002, sigma=0.025),
    "coercivity": lambda: run_coercivity(M=48, N=2, family="cubic", L=4),
    "coercivity-atomistic": lambda: run_coercivity(M=64, N=1, family="constant_one"),
    "scaling": lambda: run_scaling(),
    "consistency": lambda: run_consistency_sweep(N=3),
    "critical-strain": lambda: run_critical_strain_table(M=48, dgamma=1e-3),
}


@pytest.mark.parametrize("scenario", SCENARIO_TABLES)
def test_csv_text_matches_the_per_cell_oracle(scenario):
    table = SCENARIO_TABLES[scenario]()
    assert table.to_csv_text() == csv_text(table)


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e17, 1e308, -1e308, sys.float_info.max]),
)
_integers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**17 + 1, 2**63, -(2**63) - 1]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
CELLS = {
    "float": st.one_of(_finite, _finite.map(np.float64)),
    "int": _integers,
    "text": st.one_of(st.none(), st.text(max_size=4)),
}
CELLS["int or float"] = st.one_of(CELLS["int"], CELLS["float"])
CELLS["any"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    """A ResultTable whose columns each draw one kind of cell, or mix them,
    with its rows as tuples or as lists."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=6))
    if draw(st.booleans()):
        rows = [list(r) for r in rows]
    metadata = draw(st.dictionaries(st.sampled_from(["M", "N", "gap"]), CELLS["any"]))
    return ResultTable(columns=[f"c{i}" for i in range(len(kinds))], rows=rows, metadata=metadata)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(tables())
def test_csv_text_matches_the_oracle_on_any_cells(table):
    assert table.to_csv_text() == csv_text(table)


# ---------------------------------------------------------- external forces


def test_sine_force_values():
    cfg = ChainConfig(M=16, N=2)
    f = external_force("sine", (0.2, None, None), cfg)
    assert f.dtype == np.float64 and f.shape == (cfg.n_atoms,)
    assert at(f, 0) == pytest.approx(0.0, abs=1e-18)
    # at x = -1/2 with scale 1/5: 0.01 * (1/5) * sin(pi/2)
    assert at(f, -8) == pytest.approx(0.002, rel=1e-12)


def test_gaussian_force_peak():
    cfg = ChainConfig(M=16, N=2)
    f = external_force("gaussian", (0.2, 4.0 * cfg.a, 50.0 * cfg.a), cfg)
    assert at(f, 4) == pytest.approx(0.01 * 0.2, rel=1e-12)  # peak at mu = 4a
    # past the float range of 2 sigma^2, the exponent is ((x - mu) / sigma)^2 / 2
    f = external_force("gaussian", (0.2, 1e154, 1e154), cfg)
    assert np.all(f == 0.002 * np.exp(-0.5))
    with pytest.raises(ValueError):
        external_force("gaussian", (0.2, 0.0, -1.0), cfg)
    with pytest.raises(ValueError):
        external_force("square", (0.2, None, None), cfg)


@pytest.mark.parametrize(
    "mu, sigma, message",
    [
        (None, None, "needs mu and sigma"),
        (0.0, None, "needs mu and sigma"),
        (None, 0.1, "needs mu and sigma"),
        (0.0, 1e-200, "2 sigma"),  # 2 sigma^2 underflows to 0
    ],
)
def test_gaussian_force_rejects_parameters_it_cannot_evaluate(mu, sigma, message):
    with pytest.raises(ValueError, match=message):
        external_force("gaussian", (0.2, mu, sigma), ChainConfig(M=16, N=2))


# ------------------------------------------------------------- deformation


def test_zero_force_gives_zero_displacement(morse):
    table = solve_deformation("sine", M=16, N=2, family="cubic", L=2, amp_scale=0.0)
    assert np.max(np.abs(table.column("u_N2"))) < 1e-14


def test_deformation_matches_dense_oracle(morse):
    M = 16
    config = ChainConfig(M=M, N=2)
    beta = sample_beta(constant_profile("constant_one"), config)
    op = assemble_linear("bqcf", morse, config, beta, 1.0)
    f = external_force("sine", (0.2, None, None), config)
    f0 = f - f.mean()
    u = solve_mean_zero(op, f0)
    # oracle: least-squares on the mean-zero complement of the dense matrix
    n = config.n_atoms
    A = dense_matrix(op)
    from scipy.linalg import null_space

    Q = null_space(np.ones((1, n)))
    z = np.linalg.solve(Q.T @ A @ Q, Q.T @ f0)
    expected = Q @ z
    assert u.shape == (n,)
    assert np.max(np.abs(u - expected)) < 1e-10
    assert abs(u.mean()) < 1e-12


def test_deformation_table_structure(morse):
    table = solve_deformation("gaussian", M=32, N=2, family="cubic", L=3)
    assert table.columns == ["ell", "x", "u_N1", "u_N2", "u_N3", "f_ext"]
    assert len(table.rows) == 64
    assert abs(np.mean(table.column("u_N2"))) < 1e-10
    assert float(table.metadata["removed_mean"]) > 0  # gaussian has a mean
    # each row is the atom's index, position, three displacements and force,
    # as plain Python numbers; each gap is the sup of two displacement columns
    cfg = ChainConfig(M=32, N=2)
    assert table.column("ell") == [int(e) for e in cfg.logical_indices()]
    assert table.column("x") == [float(x) for x in cfg.positions()]
    assert {type(c) for r in table.rows for c in r[1:]} == {float}
    u1, u2, u3 = (np.array(table.column(c)) for c in ("u_N1", "u_N2", "u_N3"))
    assert table.metadata["gap_linf_N1_N2"] == np.max(np.abs(u1 - u2))
    assert table.metadata["gap_linf_N2_N3"] == np.max(np.abs(u2 - u3))


def test_deform_rejects_unstable_operator():
    # r_e = 0.8 keeps phi''(1) > 0 but makes phi''(1) + 4 phi''(2) < 0, so the
    # blend is unstable at gamma = 1 and the pre-check's inertia count says so
    potential = MorseParams(D_e=3.0, alpha=3.0, r_e=0.8)
    with pytest.raises(StrainSweepError, match=r"not coercive at gamma = 1 \(\d+ negative eigenvalues\)") as exc:
        solve_deformation("sine", M=32, N=2, potential=potential, family="cubic", L=3)
    assert exc.value.reason == "unstable_at_start"


def test_deform_requires_force_kind():
    with pytest.raises(ValueError, match="force"):
        solve_deformation("none", M=16)
    with pytest.raises(ValueError, match="N = 1, 2, 3"):
        solve_deformation("sine", M=16, N=4)


# ------------------------------------------------------------- consistency


def test_consistency_sweep_slopes(morse):
    table = run_consistency_sweep(N=2)
    assert 1.85 <= float(table.metadata["force_slope_l2"]) <= 2.15
    assert 1.85 <= float(table.metadata["force_slope_linf"]) <= 2.15
    assert 1.85 <= float(table.metadata["energy_slope"]) <= 2.15


def test_consistency_identical_at_n1(morse):
    for M in (64, 256):
        config = ChainConfig(M=M, N=1)
        u = np.sin(np.pi * config.positions())
        fa = assemble_linear("atomistic", morse, config).apply_values(u)
        fc = assemble_linear("continuum", morse, config).apply_values(u)
        assert np.max(np.abs(fa - fc)) <= 1e-13 * (np.max(np.abs(fa)) + 1)


# ------------------------------------------------------------------ runners


def test_run_coercivity_and_determinism(tmp_path):
    t1 = run_coercivity(M=48, N=2, family="cubic", L=4)
    t2 = run_coercivity(M=48, N=2, family="cubic", L=4)
    assert t1.to_csv_text() == t2.to_csv_text()
    assert t1.columns == [
        "M", "N", "family", "L", "gamma", "c_min", "iterations", "path", "factorizations",
        "residual",
    ]
    row = dict(zip(t1.columns, t1.rows[0]))
    assert row["c_min"] > 0
    assert row["path"] == "sliced" and 0 < row["factorizations"] <= row["iterations"]


def test_run_scaling_small(morse):
    table = run_scaling(family="cubic", N=2)
    assert table.metadata["L_rule"] == "M^(1/3)"
    assert [r[0] for r in table.rows] == [500, 1000, 2000, 4000]
    assert min(table.column("c_min")) > 0


# ----------------------------------------------------------------------- cli


def run_cli(args):
    return main(args)


def test_cli_coercivity_pure_atomistic(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = run_cli(
        ["coercivity", "--M", "64", "--N", "1", "--family", "one", "--out", str(out)]
    )
    assert code == 0
    assert "(1 factorizations, 1 solves)" in capsys.readouterr().out
    table = parse_csv(out.read_text())
    c_min = table.rows[0][table.columns.index("c_min")]
    assert c_min == pytest.approx(54.0, abs=1e-4)
    assert table.rows[0][table.columns.index("path")] == "sliced"


def test_cli_deform_unstable_exit_code(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = run_cli(
        ["deform", "--force", "sine", "--M", "32", "--L", "3", "--re", "0.8", "--out", str(out)]
    )
    assert code == 3
    assert "not coercive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_coercivity_non_finite_operator_exit_code(tmp_path, capsys, monkeypatch):
    def assemble_with_nan(*args, **kwargs):
        op = assemble_linear(*args, **kwargs)
        bands = op.bands.copy()
        bands[op.config.N, 3] = float("nan")
        return BandedPeriodicOperator(op.config, bands)

    monkeypatch.setattr(experiments, "assemble_linear", assemble_with_nan)
    out = tmp_path / "c.csv"
    code = run_cli(["coercivity", "--M", "64", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "NaN or infinity" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_cli_unwritable_out_exit_code(tmp_path, capsys, where):
    out = tmp_path / "missing" / "c.csv" if where == "missing directory" else tmp_path
    code = run_cli(["coercivity", "--M", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def test_cli_coercivity_non_finite_solve_exit_code(tmp_path, capsys, stability_lu):
    # numpy's LinAlgError is a ValueError, which the CLI reads as a bad
    # configuration (exit 2); a NaN solve is a numerical failure (exit 3)
    stability_lu.corrupt = lambda x: np.full_like(x, np.nan)
    out = tmp_path / "c.csv"
    code = run_cli(["coercivity", "--M", "64", "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_cli_deform_smoke(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli(
        [
            "deform", "--force", "sine", "--M", "64", "--N", "2",
            "--family", "cubic", "--L", "3", "--out", str(out),
        ]
    )
    assert code == 0
    table = parse_csv(out.read_text())
    assert table.columns == ["ell", "x", "u_N1", "u_N2", "u_N3", "f_ext"]


def test_cli_calls_a_runner_wrapped_after_import(tmp_path, monkeypatch):
    # a tracer replaces experiments.solve_deformation by a (*args, **kwargs)
    # wrapper: the flags still come from the runner, and the wrapper runs
    calls = []
    solve = experiments.solve_deformation

    def traced(*args, **kwargs):
        calls.append(kwargs["M"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_deformation", traced)
    out = tmp_path / "d.csv"
    assert run_cli(["deform", "--force", "sine", "--M", "16", "--L", "2", "--out", str(out)]) == 0
    assert calls == [16]


def test_cli_consistency_smoke(tmp_path):
    out = tmp_path / "cons.csv"
    code = run_cli(["consistency", "--N", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_critical_strain_smoke(tmp_path):
    out = tmp_path / "cs.csv"
    code = run_cli(
        [
            "critical-strain", "--M", "48", "--N", "2", "--alpha", "3", "--De", "3",
            "--dgamma", "1e-3", "--out", str(out),
        ]
    )
    assert code == 0
    table = parse_csv(out.read_text())
    assert table.columns[0] == "model"
    assert table.rows[0][0] == "atomistic"
    assert len(table.rows) == 1 + 3 * 8


def test_cli_critical_strain_summary_prints_gamma_on_the_grid(tmp_path, capsys):
    # 1 + 23104 * 1e-5 is 1.2310400000000001 in binary; the CSV keeps it, and
    # the summary prints the grid point
    out = tmp_path / "cs.csv"
    assert run_cli(["critical-strain", "--M", "32", "--N", "1", "--out", str(out)]) == 0
    table = parse_csv(out.read_text())
    assert float(table.metadata["gamma_atomistic"]) == 1.0 + 23104 * 1e-5 == 1.2310400000000001
    assert "atomistic gamma = 1.23104 " in capsys.readouterr().out


def test_cli_critical_strain_with_coefficients_that_underflow(tmp_path, monkeypatch):
    # at alpha = 100, c_9 = c_10 = phi''(9) = phi''(10) underflow to exactly 0,
    # so the eigencurve folds those coordinates and divides by none of them;
    # the CSV is byte for byte the one of the sweep that decided every
    # stretch by inertia
    out = tmp_path / "cs.csv"
    code = run_cli(["critical-strain", "--M", "32", "--N", "10", "--alpha", "100", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9703d7668ab091e15e2a30666b918885b2c1fea583fb6ff6d6004cdb6b7b6b14"
    # at alpha = 1000 every c_k, k >= 2, underflows, c_2 to -0.0, so the
    # chain is c_1 G/a: the eigencurve decides every stretch by the sign of
    # c_1 = phi''(gamma), with no factorization, unstable past its zero at
    # gamma = 1 + ln 2 / alpha
    factorizations, records = [], []
    splu, sweep = stability.splu, experiments.critical_strain
    monkeypatch.setattr(stability, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    monkeypatch.setattr(
        experiments, "critical_strain", lambda *a, **k: sweep(*a, **k, report_sink=records.append)
    )
    code = run_cli(["critical-strain", "--M", "32", "--N", "3", "--alpha", "1000", "--out", str(out)])
    assert code == 0
    table = parse_csv(out.read_text())
    assert {row[table.columns.index("gamma_crit")] for row in table.rows} == {1.0 + 69 * 1e-5}
    assert not factorizations
    assert records and {r.path for r in records} == {"pencil"}


def test_critical_strain_table_records_blends_unstable_at_one():
    # a softer well (alpha = 1.5) on the N = 3 chain at M = 64: the atomistic
    # chain holds to gamma = 1.045, and the narrowest blends are not coercive
    # at gamma = 1, where the sweep raises; the table records those rows as 1,
    # off by gamma_atomistic - 1
    params = MorseParams(alpha=1.5)
    table = run_critical_strain_table(M=64, N=3, potential=params, dgamma=1e-3)
    g_at = table.metadata["gamma_atomistic"]
    assert g_at == table.rows[0][3] == 1.045
    unstable = (("linear", 1), ("cubic", 1), ("quintic", 1), ("quintic", 2))
    at_one = {(family, L): err for _, family, L, g, err in table.rows[1:] if g == 1.0}
    assert at_one == {key: g_at - 1.0 for key in unstable}
    config = ChainConfig(M=64, N=3)
    pot = Morse(params)
    for family, L in unstable:
        beta = sample_beta(symmetric_profile(config, family, L), config)
        with pytest.raises(StrainSweepError) as info:
            critical_strain(lambda g: assemble_linear("bqcf", pot, config, beta, g), 1e-3, 1.5)
        assert info.value.reason == "unstable_at_start"


def test_cli_scan_exact_matches_bisection(tmp_path, monkeypatch):
    # --scan-exact walks the dgamma grid itself (coarse = dgamma); each sweep
    # has a single sign change, so the table equals coarse scan plus
    # bisection.  dgamma is below the default coarse step of 1e-3, so the
    # default run bisects and builds fewer operators than the walk.
    built = []

    def counted(*args, **kwargs):
        built[-1] += 1
        return assemble_linear(*args, **kwargs)

    monkeypatch.setattr(experiments, "assemble_linear", counted)
    texts = []
    for extra in ([], ["--scan-exact"]):
        out = tmp_path / f"cs{len(extra)}.csv"
        built.append(0)
        code = run_cli(["critical-strain", "--M", "32", "--dgamma", "5e-4", "--out", str(out), *extra])
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert built[0] < built[1]


UNREAD_SETTINGS = [
    (["critical-strain", "--M", "32", "--dgamma", "1e-3", "--family", "cubic"], "--family"),
    (["critical-strain", "--M", "32", "--dgamma", "1e-3", "--L", "3"], "--L"),
    (["consistency", "--M", "2000"], "--M"),
    (["consistency", "--family", "cubic"], "--family"),
    (["consistency", "--L", "5"], "--L"),
    (["consistency", "--oneside"], "--oneside"),
    (["scaling", "--M", "64"], "--M"),
    (["scaling", "--L", "9"], "--L"),
    (["scaling", "--oneside"], "--oneside"),
    (["deform", "--force", "sine", "--M", "32", "--mu", "0.1"], "mu"),
    # a value the scenario reads but cannot use: N = 1 has no consistency gap
    (["consistency", "--N", "1"], "N >= 2"),
]


@pytest.mark.parametrize(
    "args, flag", UNREAD_SETTINGS, ids=[f"{a[0]}-{flag.lstrip('-')}" for a, flag in UNREAD_SETTINGS]
)
def test_cli_rejects_settings_the_scenario_does_not_read(tmp_path, capsys, args, flag):
    out = tmp_path / "x.csv"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


MORSE_KEYS = {"scenario", "version", "D_e", "alpha", "r_e"}
SETTINGS_READ = [
    (
        ["critical-strain", "--M", "32", "--dgamma", "1e-3"],
        {"M", "N", "one_sided", "dgamma", "gamma_max", "gamma_atomistic"},
    ),
    (["coercivity", "--M", "32", "--L", "3"], {"M", "N", "family", "L", "one_sided"}),
    (["consistency"], {"N", "force_slope_l2", "force_slope_linf", "energy_slope"}),
    (
        ["deform", "--force", "sine", "--M", "32", "--L", "3"],
        {"force_kind", "M", "N", "family", "L", "one_sided", "amp_scale",
         "removed_mean", "gap_linf_N1_N2", "gap_linf_N2_N3"},
    ),
    (["scaling", "--family", "linear"], {"family", "N", "L_rule"}),
]


@pytest.mark.parametrize("args, keys", SETTINGS_READ, ids=[a[0] for a, _ in SETTINGS_READ])
def test_cli_metadata_records_the_settings_read(tmp_path, args, keys):
    out = tmp_path / "x.csv"
    assert run_cli([*args, "--out", str(out)]) == 0
    meta = parse_csv(out.read_text()).metadata
    assert set(meta) == MORSE_KEYS | keys
    assert meta["scenario"] == args[0]


def test_cli_metadata_records_layout_and_force_shape(tmp_path):
    def metadata(*args):
        out = tmp_path / "x.csv"
        assert run_cli([*args, "--M", "32", "--L", "3", "--out", str(out)]) == 0
        return parse_csv(out.read_text()).metadata

    assert metadata("coercivity")["one_sided"] == "False"
    assert metadata("coercivity", "--oneside")["one_sided"] == "True"
    # defaults mu = 4a and sigma = 50a are written out as values
    meta = metadata("deform", "--force", "gaussian")
    assert (meta["mu"], meta["sigma"]) == ("0.125", "1.5625")
    meta = metadata("deform", "--force", "gaussian", "--mu", "0.5", "--sigma", "0.25")
    assert (meta["mu"], meta["sigma"]) == ("0.5", "0.25")


@pytest.mark.parametrize("mu", ["-5.27911389637762e-05", "-1e-3"])
def test_cli_accepts_negative_exponent_values(tmp_path, mu):
    # argparse before Python 3.13 reads "-1e-3" as an option, not as a value
    out = tmp_path / "d.csv"
    args = ["deform", "--force", "gaussian", "--M", "32", "--L", "3", "--mu", mu]
    assert run_cli([*args, "--out", str(out)]) == 0
    assert float(parse_csv(out.read_text()).metadata["mu"]) == float(mu)


def test_cli_bad_config_exit_codes(tmp_path):
    assert run_cli(["critical-strain", "--bogus-flag", "1"]) == 2  # returned, not raised
    # config rejected by validation: M too small for the range
    code = run_cli(["coercivity", "--M", "2", "--N", "5", "--family", "one"])
    assert code == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    # gamma_max below the instability: sweep cannot bracket, exit 3
    code = run_cli(
        [
            "critical-strain", "--M", "32", "--N", "2",
            "--dgamma", "1e-3", "--gamma-max", "1.01",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["--force", "gaussian", "--M", "200", "--amp-scale", "1e308"],
        ["--force", "sine", "--M", "40", "--amp-scale", "1e308"],
    ],
)
def test_cli_deform_non_finite_result_exit_code(tmp_path, capsys, args):
    out = tmp_path / "d.csv"
    with np.errstate(all="ignore"):
        code = run_cli(["deform", *args, "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--gamma-max", "inf", "gamma_max"), ("--dgamma", "nan", "dgamma")]
    + [("--dgamma", "0.6", "dgamma"), ("--gamma-max", "1.000001", "gamma_max")],  # no grid
)
def test_cli_rejects_non_finite_sweep_input(tmp_path, capsys, flag, value, name):
    out = tmp_path / "x.csv"
    code = run_cli(
        ["critical-strain", "--M", "32", "--N", "2", flag, value, "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and ("finite" if value in ("inf", "nan") else "no stretch above 1") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "force, flag, value, name",
    [
        ("gaussian", "--amp-scale", "nan", "amp_scale"),
        ("sine", "--amp-scale", "inf", "amp_scale"),
        ("gaussian", "--mu", "nan", "mu"),
        ("gaussian", "--sigma", "inf", "sigma"),
    ],
)
def test_cli_rejects_non_finite_force_input(tmp_path, capsys, force, flag, value, name):
    out = tmp_path / "d.csv"
    code = run_cli(
        ["deform", "--force", force, "--M", "32", "--N", "2", flag, value, "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and "finite" in err
    assert not out.exists()


def test_cli_deform_underflowing_sigma_exit_code(tmp_path, capsys):
    # 2 sigma^2 underflows to 0 here; the force would divide 0 by 0 at mu
    out = tmp_path / "d.csv"
    code = run_cli(
        ["deform", "--force", "gaussian", "--M", "50", "--sigma", "1e-300", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sigma must be positive with 2 sigma^2 > 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, forces",
    [
        ("--sigma", "1e200", {0.002}),  # 2 sigma^2 overflows: a constant force
        ("--mu", "1e300", {0.0}),  # (x - mu)^2 overflows: no force
        ("--sigma", "1e-160", {0.0, 0.002}),  # the exponent overflows off mu = 4a
    ],
)
def test_cli_deform_gaussian_rounds_extreme_parameters(tmp_path, flag, value, forces):
    # a force that rounds to 0 or to a constant is a result, reached
    # without an OverflowError or a numpy warning
    out = tmp_path / "d.csv"
    code = run_cli(["deform", "--force", "gaussian", "--M", "50", flag, value, "--out", str(out)])
    assert code == 0
    assert set(parse_csv(out.read_text()).column("f_ext")) == forces


def test_constant_force_is_its_own_mean():
    # 0.002 at every site, whose float mean is 0.0020000000000000005: the
    # force less its mean is exactly 0, and so is every displacement (+0.0)
    table = solve_deformation("gaussian", M=50, sigma=1e200)
    assert set(table.column("f_ext")) == {0.002}
    assert table.metadata["removed_mean"] == 0.002
    u = np.array([table.column(c) for c in ("u_N1", "u_N2", "u_N3")])
    assert not np.signbit(u).any() and not u.any()


def test_cli_run_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # stands in for a chain too large to allocate; no large array is made
    def out_of_memory(**settings):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(experiments, "run_coercivity", out_of_memory)
    out = tmp_path / "c.csv"
    code = run_cli(["coercivity", "--M", "100000000000", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: coercivity does not fit in memory: Unable to allocate 1.46 TiB for an array\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--De", "inf"), ("--alpha", "inf"), ("--re", "inf"), ("--alpha", "1e200")]
)
def test_cli_rejects_bad_morse_parameters(tmp_path, capsys, flag, value):
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["coercivity", "--M", "32", flag, value, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# The README's two deform commands at M = 2000, as computed when assembly
# summed the diagonal neighbor by neighbor.  The diagonal is now minus the
# off-diagonal row sum, which differs from that in the last bit on a few
# blend rows, and one such bit moves u by ~2e-12 max|u|; hence a 1e-11 max|u|
# bound rather than a relative one on the gaps, which are differences of
# nearly equal solutions.
README_DEFORM = {
    "sine": (
        ["--force", "sine", "--M", "2000", "--N", "2", "--family", "cubic", "--L", "5"],
        dict(
            gap_linf_N1_N2=8.199476946619439e-07,
            gap_linf_N2_N3=1.2711963618225406e-07,
            removed_mean=-1.1102230246251566e-19,
            max_u_N1=3.752637202801443e-06,
            max_u_N2=4.572584897463387e-06,
            max_u_N3=4.699704533645641e-06,
        ),
    ),
    "gaussian": (
        ["--force", "gaussian", "--amp-scale", "0.2", "--mu", "0.002", "--sigma", "0.025"],
        dict(
            gap_linf_N1_N2=7.954196119403667e-08,
            gap_linf_N2_N3=1.2331553609094326e-08,
            removed_mean=6.266570686577502e-05,
            max_u_N1=3.6404059908559493e-07,
            max_u_N2=4.435825602796316e-07,
            max_u_N3=4.559141138887259e-07,
        ),
    ),
}


@pytest.mark.parametrize("force", sorted(README_DEFORM))
def test_readme_deform_outputs_pinned(tmp_path, force):
    args, pinned = README_DEFORM[force]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        assert run_cli(["deform", *args, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    table = parse_csv(paths[0].read_text())
    got = {k: float(table.metadata[k]) for k in ("gap_linf_N1_N2", "gap_linf_N2_N3", "removed_mean")}
    for col in ("u_N1", "u_N2", "u_N3"):
        got[f"max_{col}"] = float(np.max(np.abs(table.column(col))))
    assert got["removed_mean"] == pinned["removed_mean"]  # from the force alone
    scale = pinned["max_u_N2"]
    for key, want in pinned.items():
        assert abs(got[key] - want) <= 1e-11 * scale, key
