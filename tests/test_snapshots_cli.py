import json
import struct

import numpy as np
import pytest

from spin1wave import cli, dynamics, fields, snapshots
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
    assert np.array_equal(psi.stack(), back.stack())
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
    assert np.array_equal(flat[:nx], psi.u.data[0][:, 0, 0])
    # v_z is the last component block
    npts = psi.grid.npoints
    assert np.array_equal(
        flat[5 * npts : 5 * npts + nx], psi.v.data[2][:, 0, 0]
    )


def test_truncated_file_names_byte_count(tmp_path):
    psi = make_state()
    p = tmp_path / "x.s1wf"
    snapshots.write_snapshot(psi, p)
    raw = p.read_bytes()
    (tmp_path / "t.s1wf").write_bytes(raw[: len(raw) - 17])
    with pytest.raises(FormatError, match="truncated"):
        snapshots.read_snapshot(tmp_path / "t.s1wf")


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
    ],
    ids=["mass-not-a-number", "mode-without-n", "mode-at-k0", "stride-not-an-int",
         "coupled-t-final-not-multiple-of-dt"],
)
def test_cli_evolve_bad_config_exits_2(tmp_path, capsys, overrides):
    path = evolve_config(tmp_path, **overrides)
    assert cli.main(["evolve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_evolve_current_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    def perturbed(psi):
        j = dynamics.probability_current(psi)
        return j + 1e-6 * np.max(np.abs(j))

    monkeypatch.setattr(dynamics, "probability_current_matrix_form", perturbed)
    assert cli.main(["evolve", "--config", str(evolve_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CurrentMismatch:") and err.count("\n") == 1


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
