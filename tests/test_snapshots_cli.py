import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spin1wave
from spin1wave import cli, dynamics, em_coupling, fields, snapshots
from spin1wave.errors import FormatError, NoConvergence, NonFiniteState


def make_state(seed=9):
    grid = fields.Grid.cubic(8)
    psi = fields.random_wave_field(grid, 1.3, 1.5, seed=seed)
    psi.time = 2.5
    return psi


def test_roundtrip_bit_exact(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    back = snapshots.read_snapshot(p)
    # one (6, nx, ny, nz) stack, its (2, 3, ...) blocks a view of it
    assert back.data.shape == (6, *psi.grid.shape) and back.data.dtype == np.complex128
    assert np.shares_memory(back.data.reshape(2, 3, *psi.grid.shape), back.data)
    assert np.array_equal(psi.data, back.data)
    assert back.mass == psi.mass and back.time == psi.time
    p2 = tmp_path / "y.s1wf"
    snapshots.write_snapshot(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_component_order_and_x_fastest(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = p.read_bytes()
    header = snapshots._HEADER.size
    flat = np.frombuffer(raw, dtype="<c16", offset=header)
    # first nx entries run along x at y=z=0 of u_x
    nx = psi.grid.nx
    assert np.array_equal(flat[:nx], psi.data[0][:, 0, 0])
    # v_z is the last component block
    npts = psi.grid.npoints
    assert np.array_equal(
        flat[5 * npts : 5 * npts + nx], psi.data[5][:, 0, 0]
    )


def test_truncated_file_names_byte_count(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = p.read_bytes()
    (tmp_path / "t.s1wf").write_bytes(raw[: len(raw) - 17])
    with pytest.raises(FormatError, match="truncated"):
        snapshots.read_snapshot(tmp_path / "t.s1wf")


def test_read_snapshot_peak_memory(tmp_path):
    # the file's bytes and the one stack made of them; no third copy
    psi = fields.random_wave_field(fields.Grid.cubic(16), 1.3, 1.5, seed=9)
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    snapshots.read_snapshot(p)  # warm-up
    tracemalloc.start()
    try:
        snapshots.read_snapshot(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * psi.data.nbytes


def test_bad_magic(tmp_path):
    (tmp_path / "bad.s1wf").write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(FormatError, match="magic"):
        snapshots.read_snapshot(tmp_path / "bad.s1wf")


def test_trailing_bytes_rejected(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    (tmp_path / "long.s1wf").write_bytes(p.read_bytes() + b"\0" * 8)
    with pytest.raises(FormatError, match="trailing"):
        snapshots.read_snapshot(tmp_path / "long.s1wf")


def test_corrupt_grid_header_is_format_error(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = bytearray(p.read_bytes())
    raw[8:12] = struct.pack("<I", 7)  # odd sample count
    (tmp_path / "odd.s1wf").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="invalid grid"):
        snapshots.read_snapshot(tmp_path / "odd.s1wf")


def test_unsupported_version(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    (tmp_path / "v2.s1wf").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported version"):
        snapshots.read_snapshot(tmp_path / "v2.s1wf")


@pytest.mark.parametrize(
    "offset, value, match",
    [
        (44, -1.0, "mass"),
        (44, math.nan, "mass"),
        (44, math.inf, "mass"),
        (52, math.nan, "time"),
        (52, -math.inf, "time"),
        (20, math.inf, "invalid grid"),  # lx
        # no run writes non-finite data (it stops with NonFiniteState)
        (60, math.nan, "not finite"),  # Re u_x at the first point
        (60 + 16 * 6 * 8**3 - 8, -math.inf, "not finite"),  # Im v_z at the last
    ],
    ids=["negative-mass", "nan-mass", "inf-mass", "nan-time", "inf-time", "inf-length",
         "nan-data-first", "inf-data-last"],
)
def test_bad_header_value_is_format_error(tmp_path, offset, value, match):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = bytearray(p.read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    (tmp_path / "bad.s1wf").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=match):
        snapshots.read_snapshot(tmp_path / "bad.s1wf")


_SMALL = fields.random_wave_field(fields.Grid.cubic(4), 0.5, 1.0, seed=1)
# An edit overwrites header bytes at an offset: one raw byte, or a whole u32
# (version, nx, ny, nz) or f64 (lx, ly, lz, mass, time) field, so that
# negative, zero, huge, infinite and NaN values come up often.
_HEADER_EDIT = st.one_of(
    st.tuples(st.integers(0, snapshots._HEADER.size - 1), st.binary(min_size=1, max_size=1)),
    st.tuples(st.sampled_from([4, 8, 12, 16]), st.integers(0, 2**32 - 1).map(
        lambda n: struct.pack("<I", n))),
    st.tuples(st.sampled_from([20, 28, 36, 44, 52]), st.floats().map(
        lambda x: struct.pack("<d", x))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_HEADER_EDIT, min_size=1, max_size=4))
def test_header_corruption_yields_format_error_or_valid_field(edits):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "x.s1wf"
        snapshots.write_snapshot(_SMALL, p)
        raw = bytearray(p.read_bytes())
        for pos, data in edits:
            raw[pos:pos + len(data)] = data
        p.write_bytes(bytes(raw))
        try:
            psi = snapshots.read_snapshot(p)
        except FormatError:
            return
    assert isinstance(psi, fields.WaveField)
    g = psi.grid
    assert math.isfinite(psi.mass) and psi.mass >= 0 and math.isfinite(psi.time)
    assert all(0 < length < math.inf for length in (g.lx, g.ly, g.lz))
    assert g.npoints == _SMALL.grid.npoints  # the data size still matches


@pytest.mark.parametrize("header", [b"NOPE", "nan-mass", "nan-data", "overflowing-norm"])
def test_cli_snapshot_info_corrupt_exits_2(tmp_path, capsys, header):
    # with NaN data snapshot-info printed "norm": NaN and exited 0; with
    # finite data whose norm overflows, "norm": Infinity (not JSON)
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(make_state(), p)
    raw = bytearray(p.read_bytes())
    if header == "nan-mass":
        raw[44:52] = struct.pack("<d", math.nan)
    elif header == "nan-data":
        raw[60:68] = struct.pack("<d", math.nan)
    elif header == "overflowing-norm":
        raw[60:68] = struct.pack("<d", 1e200)
    else:
        raw[:4] = header
    p.write_bytes(bytes(raw))
    assert cli.main(["snapshot-info", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["landau", "--flux", "0"],
        ["landau", "--grid", "0"],
        ["landau", "--grid", "-4"],
        ["landau", "--grid", "3"],
        ["landau", "--grid", str(cli._LANDAU_GRID_BOUND + 1)],
        ["chain-check", "--mass", "-1"],
        ["chain-check", "--mass", "nan"],
        ["chain-check", "--modes", "-3"],
        ["chain-check", "--modes", "0"],
        ["chain-check", "--modes", "x"],
        ["chain-check", "--seed", "-1"],
        ["chain-check", "--modes", "65"],
        ["dispersion", "--m", "nan", "--k", "0,0,1"],
        ["dispersion", "--m", "1", "--k", "nan,0,1"],
        ["landau", "--grid", "4", "--charge", "nan"],
        ["landau", "--grid", "4", "--mass", "nan"],
        ["landau", "--grid", "4", "--mass", "inf"],
    ],
    ids=" ".join,
)
def test_cli_bad_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument" in err and "Traceback" not in err


def test_cli_verify_algebra_json(capsys):
    rc = cli.main(["verify-algebra", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["all_passed"]
    assert "anticommutation" in out["sections"]


def test_cli_dispersion(capsys):
    rc = cli.main(["dispersion", "--m", "1.0", "--k", "0,0,1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    ev = out["eigenvalues"]
    assert abs(ev[0] + np.sqrt(2)) <= 1e-12 and abs(ev[2] + 1.0) <= 1e-12


@pytest.mark.parametrize("k, rc", [("1e200,0,0", 0), ("1.5e308,1.5e308,0", 1)],
                         ids=["huge-k", "k-beyond-the-largest-double"])
def test_cli_dispersion_at_huge_k(capsys, k, rc):
    # |k| is found without overflow below the largest double, and a
    # deviation that is not finite fails; numpy's warnings stay off stderr
    assert cli.main(["dispersion", "--m", "1", "--k", k, "--json"]) == rc
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert math.isfinite(out["max_deviation"]) == (rc == 0)
    assert out["all_passed"] == (rc == 0)
    assert captured.err == ""


def test_cli_dispersion_bad_k(capsys):
    rc = cli.main(["dispersion", "--m", "1.0", "--k", "0,0"])
    assert rc == 2


def test_cli_chain_check(capsys):
    rc = cli.main([
        "chain-check", "--seed", "1", "--modes", "8", "--mass", "1.0",
        "--variant", "a", "--mass-sign", "+", "--controls", "--json",
    ])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["all_passed"]
    assert out["sections"]["system"]["notes"]["satisfies_matrix_form"] == "-b"


def test_cli_missing_config(capsys):
    rc = cli.main(["evolve", "--config", "/nonexistent/cfg.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", ["snapshot-info", "config", "diag", "out", "landau-csv",
                                  "config-not-utf8"])
def test_cli_path_that_cannot_be_opened_exits_2(tmp_path, capsys, case):
    # a directory where a file goes, or a config in another encoding
    folder = tmp_path / "folder"
    folder.mkdir()
    cfg = str(evolve_config(tmp_path))
    if case == "config-not-utf8":
        (tmp_path / "latin1.json").write_bytes(b'{"mass": 1.0, "note": "\xe9"}')
    argv = {
        "snapshot-info": ["snapshot-info", str(folder)],
        "config": ["evolve", "--config", str(folder)],
        "diag": ["evolve", "--config", cfg, "--diag", str(folder)],
        "out": ["evolve", "--config", cfg, "--out", str(folder)],
        "landau-csv": ["landau", "--grid", "4", "--csv", str(folder)],
        "config-not-utf8": ["evolve", "--config", str(tmp_path / "latin1.json")],
    }[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["diag-dir", "out-dir-after-diag"])
def test_cli_evolve_opens_outputs_before_the_run(tmp_path, capsys, monkeypatch, case):
    # a path that cannot be written exits 2 before any step, and leaves no
    # file of this command behind
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(dynamics, "run", no_run)
    folder = tmp_path / "folder"
    folder.mkdir()
    csv = tmp_path / "d.csv"
    argv = ["evolve", "--config", str(evolve_config(tmp_path))]
    argv += {"diag-dir": ["--diag", str(folder)],
             "out-dir-after-diag": ["--diag", str(csv), "--out", str(folder)]}[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not csv.exists()


def test_cli_landau_opens_its_csv_before_the_solve(tmp_path, capsys, monkeypatch):
    # a --csv that cannot be written exits 2 before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(em_coupling, "landau_spectrum", no_solve)
    folder = tmp_path / "folder"
    folder.mkdir()
    assert cli.main(["landau", "--grid", "4", "--csv", str(folder)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["evolve", "em-check"])
def test_cli_grid_too_large_to_hold_exits_2(tmp_path, capsys, command):
    # 10^15 points: the first allocation is refused (petabytes), which is
    # one error line and exit 2, not a MemoryError traceback
    grid = {"nx": 100000, "ny": 100000, "nz": 100000, "lx": 2 * np.pi, "ly": 2 * np.pi,
            "lz": 2 * np.pi}
    config = {"evolve": evolve_config, "em-check": em_check_config}[command](tmp_path, grid=grid)
    assert cli.main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_evolve_failed_run_keeps_existing_outputs(tmp_path, capsys, monkeypatch):
    # an existing output file is not truncated by the early open, and is
    # not removed when the run fails
    def failing(*args, **kwargs):
        raise NonFiniteState("injected")

    monkeypatch.setattr(dynamics, "run", failing)
    old, new = tmp_path / "old.csv", tmp_path / "new.s1wf"
    old.write_text("kept\n")
    argv = ["evolve", "--config", str(evolve_config(tmp_path)), "--diag", str(old),
            "--out", str(new)]
    assert cli.main(argv) == 1
    assert old.read_text() == "kept\n" and not new.exists()


def test_cli_invalid_config_rejected(tmp_path, capsys):
    cfg = {
        "grid": {"nx": 15, "ny": 16, "nz": 16, "lx": 6.3, "ly": 6.3, "lz": 6.3},
        "mass": 1.0,
        "initial_condition": {"type": "random_band_limited", "seed": 1},
        "evolution": {"t_final": 1.0, "dt": 0.1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", "--config", str(path)]) == 2


def test_cli_random_ic_requires_seed(tmp_path):
    cfg = {
        "grid": {"nx": 8, "ny": 8, "nz": 8, "lx": 6.3, "ly": 6.3, "lz": 6.3},
        "mass": 1.0,
        "initial_condition": {"type": "random_band_limited"},
        "evolution": {"t_final": 1.0, "dt": 0.1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["evolve", "--config", str(path)]) == 2


def evolve_config(tmp_path, **overrides):
    cfg = {
        "grid": {
            "nx": 8, "ny": 8, "nz": 8,
            "lx": 2 * np.pi, "ly": 2 * np.pi, "lz": 2 * np.pi,
        },
        "mass": 1.0,
        "initial_condition": {
            "type": "random_band_limited", "k_cutoff": 1.0, "seed": 42, "transverse": True,
        },
        "evolution": {"t_final": 1.0, "dt": 0.1, "diag_stride": 5},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _random_ic(**entries):
    return {"initial_condition": {"type": "random_band_limited", "k_cutoff": 1.0, "seed": 42,
                                  **entries}}


def _coupled(**external):
    return {"charge": 0.5, "external_field": external,
            "evolution": {"t_final": 0.2, "dt": 0.02, "diag_stride": 5}}


def _plane_mode(**mode):
    return {"initial_condition": {"type": "plane_modes", "modes": [mode]}}


def test_cli_evolve_reproducible_csv(tmp_path, capsys):
    path = evolve_config(tmp_path)
    csv1, csv2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    snap = tmp_path / "s.s1wf"
    assert cli.main(["evolve", "--config", str(path), "--diag", str(csv1), "--out", str(snap)]) == 0
    assert cli.main(["evolve", "--config", str(path), "--diag", str(csv2)]) == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "t,total_probability,energy,jx,jy,jz,div_u_res,div_v_res,continuity_res"
    capsys.readouterr()  # drop the evolve status lines
    assert cli.main(["snapshot-info", str(snap)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["time"] == 1.0


def test_cli_evolve_free_lands_on_t_final(tmp_path, capsys):
    path = evolve_config(tmp_path, evolution={"t_final": 1.04, "dt": 0.1, "diag_stride": 5})
    assert cli.main(["evolve", "--config", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t_final"] == 1.04


def test_cli_evolve_plane_modes(tmp_path, capsys):
    path = evolve_config(
        tmp_path,
        initial_condition={
            "type": "plane_modes",
            "modes": [
                {"n": [0, 0, 1], "branch": "+", "polarization": "t1", "amplitude": [1.0, 0.0]},
                {"n": [0, 1, 0], "branch": "-", "polarization": "long", "amplitude": 0.5},
            ],
        },
    )
    assert cli.main(["evolve", "--config", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t_final"] == 1.0


def test_cli_evolve_with_external_field(tmp_path, capsys):
    path = evolve_config(
        tmp_path,
        charge=0.5,
        external_field={"random": {"seed": 11, "amplitude": 0.2, "nmax": 1}},
        evolution={"t_final": 0.2, "dt": 0.02, "diag_stride": 5},
    )
    csv = tmp_path / "em.csv"
    assert cli.main(["evolve", "--config", str(path), "--diag", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) >= 3


# Configs that a parser ignoring unknown keys and converting with float()
# would run: id -> (overrides, the key the one error line names).  The first
# would run a free evolution at stride 1, its field and stride misspelled.
_RANDOM_FIELD = {"random": {"seed": 11, "amplitude": 0.2, "nmax": 1}}
_TABLE_REFUSED = {
    "misspelled-field-and-stride": (
        {"charge": 0.5, "external_feild": _RANDOM_FIELD,
         "evolution": {"t_final": 0.2, "dt": 0.02, "diag_strid": 3}}, "external_feild"),
    "mass-a-boolean": ({"mass": True}, "mass"),
    "dt-a-string": ({"evolution": {"t_final": 1.0, "dt": "0.1"}}, "evolution.dt"),
    "branch-a-boolean": (_plane_mode(n=[0, 0, 1], branch=True), "modes[0].branch"),
    "branch-a-float": (_plane_mode(n=[0, 0, 1], branch=1.0), "modes[0].branch"),
    "mode-index-strings": (_plane_mode(n=["0", "0", "1"]), "modes[0].n[0]"),
    "phi-terms-an-object": (_coupled(phi_terms={}), "external_field.phi_terms"),
    "random-with-phi-terms": (
        _coupled(**_RANDOM_FIELD, phi_terms=[{"n": [1, 0, 0], "cos": 0.1}]),
        "external_field.phi_terms"),
    "polarisation-misspelled": (_plane_mode(n=[0, 0, 1], polarisation="long"),
                                "modes[0].polarisation"),
    "grid-unknown-key": (
        {"grid": {"nx": 8, "ny": 8, "nz": 8, "lx": 6.3, "ly": 6.3, "lz": 6.3, "nw": 8}},
        "grid.nw"),
    "output-unknown-key": ({"output": {"diagnostic": "d.csv"}}, "output.diagnostic"),
    "fourier-term-unknown-key": (_coupled(phi_terms=[{"n": [1, 0, 0], "cos": 0.1, "son": 0.3}]),
                                 "phi_terms[0].son"),
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"mass": "heavy"},
        {"initial_condition": {"type": "plane_modes", "modes": [{"branch": "+"}]}},
        {"initial_condition": {"type": "plane_modes", "modes": [{"n": [0, 0, 0]}]}},
        {"evolution": {"t_final": 1.0, "dt": 0.1, "diag_stride": "x"}},
        {
            "charge": 0.5,
            "external_field": {"random": {"seed": 11, "amplitude": 0.2, "nmax": 1}},
            "evolution": {"t_final": 0.05, "dt": 0.02},
        },
        {"initial_condition": {"type": "plane_modes", "modes": [5]}},
        {"external_field": "x"},
        {"output": "x"},
        {"mass": float("nan")},
        {
            "charge": float("nan"),
            "external_field": {"random": {"seed": 11, "amplitude": 0.2, "nmax": 1}},
        },
        {"evolution": {"t_final": 1.0, "dt": float("nan")}},
        {"evolution": {"t_final": float("nan"), "dt": 0.1}},
        {"evolution": {"t_final": 1.0, "dt": float("inf")}},
        {"evolution": {"t_final": float("inf"), "dt": 0.1}},
        {"evolution": {"t_final": 1.0, "dt": 0.1, "diag_stride": 1.5}},
        {"evolution": {"t_final": -1.0, "dt": 0.1}},
        {"evolution": {"t_final": 1.0, "dt": 0.0}},
        {"evolution": {"t_final": 1.0, "dt": 0.1, "diag_stride": 0}},
        {**_coupled(random={"seed": 11, "amplitude": 0.2, "nmax": 1}),
         "evolution": {"t_final": 1.0, "dt": 0.5}},
        _random_ic(k_cutoff=float("nan")),
        _random_ic(k_cutoff=0),
        _random_ic(k_cutoff=-1),
        _random_ic(k_cutoff=1e-200),
        _random_ic(seed=1.5),
        _coupled(random={"seed": 11, "amplitude": float("nan"), "nmax": 1}),
        _coupled(random={"seed": 11, "amplitude": float("inf"), "nmax": 1}),
        # finite, but the potentials' spectra overflow: refused before a step
        _coupled(random={"seed": 1, "amplitude": 1e308, "nmax": 1}),
        _coupled(random={"seed": 1.5, "amplitude": 0.2, "nmax": 1}),
        _coupled(phi_terms=[{"n": [1, 0, 0], "cos": float("nan")}]),
        _coupled(phi_terms=[{"n": [0.5, 0, 0], "cos": 0.1}]),
        _plane_mode(n=[0, 0, 1], amplitude=[1]),
        _plane_mode(n=[0, 0, 1], amplitude=float("nan")),
        _plane_mode(n=[0, 0, 1.5]),
        {"grid": {"nx": 8.5, "ny": 8, "nz": 8, "lx": 6.3, "ly": 6.3, "lz": 6.3}},
        # an integer path would be opened as a file descriptor
        {"output": {"diagnostics": 1}},
        {"output": {"snapshot": ["state.s1wf"]}},
        _random_ic(transverse="no"),
        _coupled(a_terms=[{"component": True, "n": [0, 1, 0], "sin": 0.2}]),
        _coupled(a_terms=[{"component": 1.0, "n": [0, 1, 0], "sin": 0.2}]),
        _coupled(a_terms=[{"component": "w", "n": [0, 1, 0], "sin": 0.2}]),
        *(overrides for overrides, _ in _TABLE_REFUSED.values()),
    ],
    ids=["mass-not-a-number", "mode-without-n", "mode-at-k0", "stride-not-an-int",
         "coupled-t-final-not-multiple-of-dt", "mode-not-an-object",
         "external-field-not-an-object", "output-not-an-object", "mass-nan", "charge-nan",
         "dt-nan", "t-final-nan", "dt-infinite", "t-final-infinite", "stride-not-whole",
         "t-final-negative", "dt-zero", "stride-zero", "coupled-dt-over-stability-bound",
         "k-cutoff-nan", "k-cutoff-0", "k-cutoff-negative", "k-cutoff-square-underflows",
         "seed-not-whole", "random-field-amplitude-nan", "random-field-amplitude-infinite",
         "random-field-amplitude-overflows",
         "random-field-seed-not-whole", "fourier-cos-nan", "fourier-mode-not-whole",
         "mode-amplitude-short", "mode-amplitude-nan", "mode-index-not-whole",
         "nx-not-whole", "diagnostics-path-an-integer", "snapshot-path-a-list",
         "transverse-not-a-boolean", "a-component-a-boolean", "a-component-a-float",
         "a-component-unknown-name", *_TABLE_REFUSED],
)
def test_cli_evolve_bad_config_exits_2(tmp_path, capsys, overrides):
    path = evolve_config(tmp_path, **overrides)
    assert cli.main(["evolve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("overrides, key", _TABLE_REFUSED.values(), ids=_TABLE_REFUSED)
def test_cli_evolve_config_error_names_the_key(tmp_path, capsys, overrides, key):
    assert cli.main(["evolve", "--config", str(evolve_config(tmp_path, **overrides))]) == 2
    assert key in capsys.readouterr().err


def test_cli_evolve_charge_without_field_is_free(tmp_path):
    # a charge in no external field evolves freely, as at charge 0
    csv = [tmp_path / "neutral.csv", tmp_path / "charged.csv"]
    for charge, path in zip((0.0, 0.5), csv):
        cfg = evolve_config(tmp_path, charge=charge)
        assert cli.main(["evolve", "--config", str(cfg), "--diag", str(path)]) == 0
    assert csv[0].read_bytes() == csv[1].read_bytes()


@pytest.mark.parametrize("command, overrides", [("evolve", {"mass": True}),
                                                ("em-check", {"trails": 2})],
                         ids=["evolve-mass-a-boolean", "em-check-misspelled-trials"])
def test_cli_bad_config_exits_2_under_optimize(tmp_path, command, overrides):
    # python -O strips asserts: no config check may rest on one
    config = evolve_config if command == "evolve" else em_check_config
    path = config(tmp_path, **overrides)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "spin1wave.cli", command, "--config", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "overrides", [{}, _coupled(random={"seed": 11, "amplitude": 0.2, "nmax": 1})],
    ids=["free", "coupled"])
def test_cli_evolve_huge_t_final_exits_2(tmp_path, overrides):
    # 2^52 or more steps are refused before any is taken; the subprocess and
    # its timeout keep a run that would not end from stalling the suite
    path = evolve_config(tmp_path, **{**overrides, "evolution": {"t_final": 1e300, "dt": 0.02}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "spin1wave.cli", "evolve", "--config", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["evolve", "em-check"])
@pytest.mark.parametrize("length", [1e-300, 1e200, 1.4e-107],
                         ids=["box-1e-300", "box-1e200", "box-1.4e-107"])
def test_cli_box_beyond_the_doubles_exits_2(tmp_path, capsys, command, length):
    # at 1e-300 k^2 overflowed (an OverflowError traceback); at 1e200 the
    # cell volume is inf (evolve wrote a NaN CSV, em-check a traceback); at
    # 1.4e-107 it is subnormal, 5e-324 (evolve exited 0 with norm 0)
    grid = {"nx": 8, "ny": 8, "nz": 8, "lx": length, "ly": length, "lz": length}
    config = evolve_config if command == "evolve" else em_check_config
    assert cli.main([command, "--config", str(config(tmp_path, grid=grid))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("k_cutoff", [1e200, 1e-160])
def test_cli_evolve_extreme_k_cutoff_runs(tmp_path, capsys, k_cutoff):
    # 1e200 squared by ** raised OverflowError; at 1e-160 the envelope's
    # quotient overflows, where its limit exp(-inf) = 0 is exact
    path = evolve_config(tmp_path, **_random_ic(k_cutoff=k_cutoff, transverse=True))
    out = tmp_path / "state.s1wf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    psi = snapshots.read_snapshot(out)
    assert np.isfinite(psi.data).all()
    assert abs(psi.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("length", [1e-300, 1e200, 1.4e-107])
def test_snapshot_box_beyond_the_doubles_is_format_error(tmp_path, length):
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(make_state(), p)
    raw = bytearray(p.read_bytes())
    raw[20:44] = struct.pack("<3d", length, length, length)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="invalid grid"):
        snapshots.read_snapshot(p)

@pytest.mark.parametrize("t_final, dt, rows", [(1.0, 0.6, 3), (0.3, 0.1, 4), (0.7, 0.1, 8)])
def test_cli_evolve_free_record_times(tmp_path, t_final, dt, rows):
    path = evolve_config(tmp_path, evolution={"t_final": t_final, "dt": dt, "diag_stride": 1})
    csv = tmp_path / "d.csv"
    assert cli.main(["evolve", "--config", str(path), "--diag", str(csv)]) == 0
    times = [float(line.split(",")[0]) for line in csv.read_text().splitlines()[1:]]
    assert len(times) == rows and times[-1] == t_final
    assert all(a < b <= t_final for a, b in zip(times, times[1:]))


def _assert_current_mismatch_exits_1(tmp_path, capsys, monkeypatch, **overrides):
    def perturbed(psi):
        j = dynamics.probability_current(psi)
        return j + 1e-6 * np.max(np.abs(j))

    monkeypatch.setattr(dynamics, "probability_current_matrix_form", perturbed)
    assert cli.main(["evolve", "--config", str(evolve_config(tmp_path, **overrides))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CurrentMismatch:") and err.count("\n") == 1


def test_cli_evolve_current_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    _assert_current_mismatch_exits_1(tmp_path, capsys, monkeypatch)


def test_cli_evolve_coupled_current_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    _assert_current_mismatch_exits_1(
        tmp_path, capsys, monkeypatch,
        charge=0.5,
        external_field={"random": {"seed": 11, "amplitude": 0.2, "nmax": 1}},
        evolution={"t_final": 0.2, "dt": 0.02, "diag_stride": 5},
    )


def test_cli_free_evolve_fft_count(tmp_path, fft_transforms):
    # 11 records from a transverse random state, as in the free benchmark run
    path = evolve_config(tmp_path, evolution={"t_final": 1.0, "dt": 0.1, "diag_stride": 1})
    csv = tmp_path / "d.csv"
    assert cli.main(["evolve", "--config", str(path), "--diag", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 1 + 11
    assert sum(fft_transforms) <= 288  # 480 when each record transformed its state again


@pytest.mark.parametrize("error", [NonFiniteState, NoConvergence])
def test_cli_numerical_error_exits_1(tmp_path, capsys, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(dynamics, "diagnostics", failing)
    assert cli.main(["evolve", "--config", str(evolve_config(tmp_path))]) == 1
    assert capsys.readouterr().err == f"error: {error.__name__}: injected\n"


def test_cli_em_check_scalar_potential(tmp_path, capsys):
    cfg = {
        "grid": {
            "nx": 16, "ny": 16, "nz": 16,
            "lx": 2 * np.pi, "ly": 2 * np.pi, "lz": 2 * np.pi,
        },
        "mass": 1.0,
        "charge": 0.5,
        "seed": 3,
        "trials": 3,
        "external_field": {
            "phi_terms": [{"n": [1, 0, 0], "cos": 0.3}, {"n": [0, 1, 0], "sin": 0.2}],
        },
    }
    path = tmp_path / "em.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["em-check", "--config", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["all_passed"]


def test_cli_landau(tmp_path, capsys):
    csv = tmp_path / "landau.csv"
    rc = cli.main(["landau", "--grid", "16", "--flux", "1", "--mass", "1.0",
                   "--charge", "1.0", "--csv", str(csv)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["all_passed"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "e_squared"
    assert len(lines) == 1 + 6 * 16 * 16
    # eB = 2 pi N / box^2 for any nonzero charge: a subnormal charge must not
    # overflow B = eB / e into NaN link phases
    subnormal = tmp_path / "subnormal.csv"
    assert cli.main(["landau", "--grid", "16", "--flux", "1", "--mass", "1.0",
                     "--charge", "1e-320", "--csv", str(subnormal)]) == 0
    assert subnormal.read_bytes() == csv.read_bytes()


_MASS_BOUND = 1e5
_MASS_COMMANDS = {
    "evolve": lambda tmp, m: ["evolve", "--config", str(evolve_config(tmp, mass=m))],
    "em-check": lambda tmp, m: ["em-check", "--config", str(em_check_config(
        tmp, mass=m, grid={"nx": 8, "ny": 8, "nz": 8, "lx": 2 * np.pi, "ly": 2 * np.pi,
                           "lz": 2 * np.pi}))],
    "chain-check-h": lambda tmp, m: ["chain-check", "--modes", "64", "--mass", repr(m)],
    "chain-check-e": lambda tmp, m: ["chain-check", "--modes", "64", "--variant", "e",
                                     "--mass", repr(m)],
    "chain-check-a": lambda tmp, m: ["chain-check", "--modes", "64", "--variant", "a",
                                     "--mass-sign=+", "--mass", repr(m)],
    "landau": lambda tmp, m: ["landau", "--grid", "4", f"--mass={m!r}"],
    "landau-negative": lambda tmp, m: ["landau", "--grid", "4", f"--mass={-m!r}"],
    "dispersion": lambda tmp, m: ["dispersion", "--k", "0,0,1", f"--m={m!r}"],
    "dispersion-negative": lambda tmp, m: ["dispersion", "--k", "0,0,1", f"--m={-m!r}"],
}


@pytest.mark.parametrize("mass", [_MASS_BOUND, math.nextafter(_MASS_BOUND, math.inf), 1e200],
                         ids=["at-bound", "above-bound", "1e200"])
@pytest.mark.parametrize("command", _MASS_COMMANDS)
def test_cli_mass_bound(tmp_path, capsys, command, mass):
    # at the bound m^2 and the chains' pole test stay finite; beyond it every
    # mass input is a usage error, not an OverflowError or PoleError traceback
    try:
        code = cli.main(_MASS_COMMANDS[command](tmp_path, mass))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if mass == _MASS_BOUND:
        assert code in (0, 1) and not err
    else:
        config_error = err.startswith("error:") and err.count("\n") == 1
        usage_error = err.startswith("usage:") and "error: argument" in err
        assert code == 2 and (config_error or usage_error)


def em_check_config(tmp_path, **overrides):
    cfg = {
        "grid": {
            "nx": 16, "ny": 16, "nz": 16,
            "lx": 2 * np.pi, "ly": 2 * np.pi, "lz": 2 * np.pi,
        },
        "mass": 1.0,
        "charge": 0.5,
        "seed": 3,
        "trials": 2,
        "external_field": {
            "phi_terms": [{"n": [1, 0, 0], "cos": 0.3}, {"n": [0, 1, 0], "sin": 0.2}],
        },
    }
    cfg.update(overrides)
    path = tmp_path / "em.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_em_check_external_not_an_object_exits_2(tmp_path, capsys):
    path = em_check_config(tmp_path, external_field="x")
    assert cli.main(["em-check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: external_field must be a JSON object")


@pytest.mark.parametrize(
    "overrides",
    [
        {"trials": 0},
        {"trials": 2.5},
        {"seed": -1},
        {"seed": "x"},
        {"seed": 1.5},
        {"mass": float("nan")},
        {"mass": -1.0},
        {"charge": float("inf")},
        {"external_field": {"random": {"seed": 11, "amplitude": float("nan"), "nmax": 1}}},
        # finite, but the potentials' spectra overflow: refused before a CG solve
        {"external_field": {"random": {"seed": 1, "amplitude": 1e308, "nmax": 1}}},
        {"trails": 2},
    ],
    ids=["trials-0", "trials-not-whole", "seed-negative", "seed-not-a-number",
         "seed-not-whole", "mass-nan", "mass-negative", "charge-infinite",
         "random-field-amplitude-nan", "random-field-amplitude-overflows", "trials-misspelled"],
)
def test_cli_em_check_bad_config_exits_2(tmp_path, capsys, overrides):
    path = em_check_config(tmp_path, **overrides)
    assert cli.main(["em-check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if "trails" in overrides:  # not the default 5 trials, run silently
        assert "trails" in err


def test_cli_em_check_reports_cg_telemetry(tmp_path, capsys):
    path = em_check_config(tmp_path)
    assert cli.main(["em-check", "--config", str(path), "--json"]) == 0
    notes = json.loads(capsys.readouterr().out)["sections"]["constrained_identity"]["notes"]
    assert int(notes["cg_max_iterations"]) >= 1
    assert float(notes["cg_max_residual"]) <= 1e-10
    assert cli.main(["em-check", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert f"note  cg_max_iterations: {notes['cg_max_iterations']}" in text
    assert f"note  cg_max_residual: {notes['cg_max_residual']}" in text


def test_cli_em_check_overflow_prints_one_error_line(tmp_path):
    # at charge 1e200 the coupling overflows and the projection stops; stderr
    # holds that one line, no numpy RuntimeWarning, and stdout the sections
    # finished before it: the squared identity reads NaN and fails, and the
    # run fails.  A subprocess, because the suite turns warnings into errors
    # in-process.
    path = em_check_config(
        tmp_path, grid={"nx": 8, "ny": 8, "nz": 8, "lx": 2 * np.pi, "ly": 2 * np.pi,
                        "lz": 2 * np.pi},
        charge=1e200, external_field={"random": {"seed": 7, "amplitude": 0.2, "nmax": 1}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(spin1wave.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    for mode in ([], ["--json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "spin1wave.cli", "em-check", "--config", str(path), *mode],
            env={**env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: NonFiniteState:") and proc.stderr.count("\n") == 1
        if mode:
            report = json.loads(proc.stdout)
            assert report["all_passed"] is False
            assert list(report["sections"]) == ["hermiticity", "squared_identity"]
            squared = report["sections"]["squared_identity"]
            assert squared["all_passed"] is False
            assert all(math.isnan(c["value"]) and not c["passed"] for c in squared["checks"])
        else:
            lines = proc.stdout.splitlines()
            assert [ln for ln in lines if ln.startswith("[")] == ["[hermiticity]",
                                                                  "[squared_identity]"]
            assert "  FAIL  squared_hamiltonian_identity: nan (bound 1.000e-12)" in lines
            assert lines[-1] == "overall: FAIL"


def test_cli_em_check_stopped_projection_fails_the_report(tmp_path, capsys, monkeypatch):
    # the sections finished before the projection stopped pass, yet the run
    # did not finish: the report fails, as the exit code does
    def stopped(*args, **kwargs):
        raise NoConvergence("injected")

    monkeypatch.setattr(em_coupling, "constrained_square_check", stopped)
    path = em_check_config(tmp_path, grid={"nx": 8, "ny": 8, "nz": 8, "lx": 2 * np.pi,
                                           "ly": 2 * np.pi, "lz": 2 * np.pi})
    assert cli.main(["em-check", "--config", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert list(report["sections"]) == ["hermiticity", "squared_identity"]
    assert all(sec["all_passed"] for sec in report["sections"].values())
    assert report["all_passed"] is False
    assert err == "error: NoConvergence: injected\n"


def test_cli_leaves_thread_variables_alone(monkeypatch, capsys):
    # thread pools are set by the standard variables before the process
    # starts; the CLI sets none of them
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    monkeypatch.setenv("SPIN1_THREADS", "1")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    assert cli.main(["verify-algebra"]) == 0
    capsys.readouterr()
    assert [name for name in names if name in os.environ] == []
