import io
import json

import numpy as np
import pytest
import scipy.io

from frenet_ife import assembly
from frenet_ife.cli import main
from frenet_ife.config import RunConfig


def test_config_round_trip(tmp_path):
    cfg = RunConfig(beta_plus=7.0, degree=2, mesh_sizes=[8, 16],
                    sigma0=3.5, out_dir=str(tmp_path / "o"))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    cfg2 = RunConfig.load(path)
    assert cfg2.to_dict() == cfg.to_dict()
    path2 = tmp_path / "cfg2.json"
    cfg2.save(path2)
    assert path.read_text() == path2.read_text()


def test_config_validation_errors():
    with pytest.raises(ValueError):
        RunConfig(beta_minus=0.0).validate()
    with pytest.raises(ValueError):
        RunConfig(beta_minus=5.0, beta_plus=1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(degree=4).validate()
    with pytest.raises(ValueError):
        RunConfig(mesh_sizes=[2]).validate()      # cell too coarse for r0=0.6
    with pytest.raises(ValueError):
        RunConfig(sigma0=-1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(case={"kind": "circle_power", "p": 3}).validate()
    RunConfig().validate()
    RunConfig(interface={"kind": "circle", "radius": 0.6, "center": [0, 0]}).validate()


def test_off_centre_circle_power_exits_2(tmp_path):
    # the manufactured solution is radial about the origin
    spec = {"kind": "circle", "radius": 0.6, "center": [0.2, 0.0]}
    with pytest.raises(ValueError, match="centred at the origin"):
        RunConfig(interface=spec).validate()
    cfg = tmp_path / "off.json"
    cfg.write_text(json.dumps({"interface": spec, "out_dir": str(tmp_path / "o")}))
    assert main(["solve", "--config", str(cfg), "--mesh", "8"]) == 2
    assert not (tmp_path / "o").exists()


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"tau": 3})


def test_cli_invalid_beta_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"beta_minus": -1.0}))
    assert main(["solve", "--config", str(cfg)]) == 2


def test_cli_solve_writes_artifacts(tmp_path, monkeypatch):
    assembled = []

    def csr(*args, _orig=assembly._csr):
        assembled.append(_orig(*args))
        return assembled[-1]

    monkeypatch.setattr(assembly, "_csr", csr)
    out = tmp_path / "run"
    rc = main(["solve", "--mesh", "16", "--degree", "1",
               "--out", str(out), "--dump-system"])
    assert rc == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2        # header + one row
    assert lines[0].split(",")[:4] == ["n", "h", "dofs", "l2"]
    report = json.loads((out / "solve_report.json").read_text())
    # recorded auto penalty satisfies the coercivity requirement
    assert report["sigma0"] >= report["trace_constant"] ** 2 + 0.5
    assert 0.0 < report["mesh"]["min_cut_fraction"] < 1.0
    assert (out / "resolved_config.json").exists()
    # the dump lists S row by row, as the assembled CSR matrix does
    (S,) = assembled
    expected = io.BytesIO()
    scipy.io.mmwrite(expected, S)
    assert S.format == "csr"
    assert (out / "system_S.mtx").read_bytes() == expected.getvalue()
    assert (out / "coefficients.npy").exists()
    diag = (out / "space_diagnostics.csv").read_text().splitlines()
    assert len(diag) == report["mesh"]["interface_elements"] + 1


def test_cli_convergence_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["convergence", "--mesh", "8,16", "--degree", "1",
                   "--sigma0", "6.0", "--out", str(out)])
        assert rc == 0
    csv1 = (out1 / "errors.csv").read_bytes()
    csv2 = (out2 / "errors.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().strip().splitlines()
    assert len(lines) == 3        # header + 2 rows
    rep = json.loads((out1 / "convergence_report.json").read_text())
    assert len(rep["rates_l2"]) == 1


def test_cli_probe_geometry(tmp_path):
    out = tmp_path / "g"
    rc = main(["probe-geometry", "--mesh", "8,16,32", "--out", str(out)])
    assert rc == 0
    probes = json.loads((out / "geometry_probes.json").read_text())
    assert len(probes["levels"]) == 3
    assert set(probes["levels"][0]) >= {"t_dev", "dt_dev", "det_dev",
                                        "band_lo", "band_hi"}
    assert 1.5 <= probes["slope_t_dev"] <= 2.5


def test_cli_probe_trace_and_coercivity(tmp_path):
    out = tmp_path / "t"
    rc = main(["probe-trace", "--mesh", "8,16", "--degree", "1", "--out", str(out)])
    assert rc == 0
    probes = json.loads((out / "trace_probes.json").read_text())
    assert probes["max_ratio"] <= 2.0

    out2 = tmp_path / "c"
    rc = main(["probe-coercivity", "--mesh", "8", "--degree", "1",
               "--out", str(out2)])
    assert rc == 0
    probe = json.loads((out2 / "coercivity_probe.json").read_text())
    assert probe["min_ratio"] >= 0.25


def test_cli_probe_trace_without_interface_elements_writes_error(tmp_path):
    # a circle of radius 3 encloses the whole domain: no element is cut
    cfg = tmp_path / "far.json"
    out = tmp_path / "t"
    cfg.write_text(json.dumps({"interface": {"kind": "circle", "radius": 3.0},
                               "out_dir": str(out)}))
    assert main(["probe-trace", "--config", str(cfg), "--mesh", "8,16"]) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "FrenetIfeError"
    assert "n=8" in error["message"] and "no interface element" in error["message"]
