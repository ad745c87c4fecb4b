import csv
import io
import json
import shutil

import numpy as np
import pytest
import scipy.io

from frenet_ife import assembly
from frenet_ife.analysis import error_norms, setup_level
from frenet_ife.assembly import assemble, auto_sigma0, coercivity_ratio, solve
from frenet_ife.cli import COMMANDS, main
from frenet_ife.config import RunConfig
from frenet_ife.errors import FrenetIfeError

from oracles import loop_trace_constant


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


def test_manufactured_case_checks_only_for_commands_that_build_it(tmp_path):
    cfg = tmp_path / "ellipse.json"
    cfg.write_text(json.dumps({"interface": {"kind": "ellipse", "a": 0.7, "b": 0.5}}))
    out = tmp_path / "g"
    assert main(["probe-geometry", "--config", str(cfg), "--mesh", "16,32",
                 "--out", str(out)]) == 0
    assert len(json.loads((out / "geometry_probes.json").read_text())["levels"]) == 2
    assert main(["solve", "--config", str(cfg), "--mesh", "16",
                 "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s").exists()


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"tau": 3})


def test_cli_invalid_beta_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"beta_minus": -1.0}))
    assert main(["solve", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("override, argv", [pytest.param(o, ["solve"], id=json.dumps(o)) for o in [
    {"quad": {"volume": 0}}, {"quad": {"volume": -1}}, {"quad": {"volume": 2.5}},
    {"quad": None}, {"case": None},
    {"beta_minus": "1"}, {"sigma0": [1]},
    {"interface": {"kind": "circle", "radius": "0.6"}},
    {"interface": {"kind": "circle", "radius": 0.6, "centre": [0.0, 0.0]}},
    {"quad": {"vol": 9}}, {"case": {"kind": "circle_power", "p": 4, "q": 2}},
    {"degree": 2.5}, {"degree": True}, {"mesh_sizes": [8.7]}, {"mesh_sizes": ["8"]},
    {"case": {"kind": "circle_power", "p": 4.9}},
    {"beta_minus": True}, {"beta_plus": True}, {"sigma0": True},
    {"domain": [False, True, -1, 1]}, {"domain": [-1, 1, "-1", 1]},
    {"interface": {"kind": "circle", "radius": True}},
    {"interface": {"kind": "circle", "radius": 0.6, "center": [False, 0.0]}},
    {"interface": {"kind": "circle", "radius": 0.6, "center": ["0", 0.0]}},
    # degenerate interfaces: ||g'|| vanishes somewhere, or everywhere
    {"interface": {"kind": "circle", "radius": 0.0}},
    {"interface": {"kind": "ellipse", "a": 0.0, "b": 0.5}},
    {"interface": {"kind": "line", "origin": [0, 0], "direction": [0, 0]}},
    # an interface that is not an object
    {"interface": None}, {"interface": "circle"}, {"interface": [1]},
    # numbers that are not finite, or that no float holds
    {"beta_plus": float("inf")}, {"beta_minus": float("nan")}, {"sigma0": float("inf")},
    {"domain": [-1, 1, -1, float("inf")]},
    {"interface": {"kind": "circle", "radius": 0.6, "center": [float("-inf"), 0.0]}},
]] + [
    pytest.param({"interface": {"kind": "circle", "radius": float("nan")}}, ["probe-geometry"],
                 id="probe-geometry radius NaN"),
    pytest.param({"beta_plus": 10**400}, ["solve"], id="beta_plus 10**400"),
    pytest.param({}, ["solve", "--sigma0", "inf"], id="--sigma0 inf"),
    # a jump penalty sigma0 * gamma / h, gamma = beta_plus^2 / beta_minus,
    # that no float holds
    pytest.param({"beta_plus": 1e200}, ["solve", "--mesh", "8", "--degree", "1"],
                 id="beta_plus 1e200"),
    pytest.param({}, ["solve", "--mesh", "8", "--degree", "1", "--sigma0", "1e308"],
                 id="--sigma0 1e308"),
])
def test_cli_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, override, argv):
    cfg = tmp_path / "bad.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({**override, "out_dir": str(out)}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("override, why", [
    ({"beta_plus": 1e200}, "^the jump penalty's gamma = beta_plus\\^2 / beta_minus must be finite$"),
    ({"beta_plus": 1e150, "beta_minus": 1e-10}, "^the jump penalty's gamma = "),
    ({"sigma0": 1e308}, "^mesh n=8: the jump penalty sigma0 \\* gamma / h must be finite"),
    ({"sigma0": 1e305, "mesh_sizes": [8, 4096]}, "^mesh n=4096: the jump penalty"),
])
def test_jump_penalty_must_be_finite(override, why):
    with pytest.raises(ValueError, match=why):
        RunConfig.from_dict(override).validate()


@pytest.mark.parametrize("top", [[1, 2], "solve", None], ids=json.dumps)
def test_cli_config_that_is_not_an_object_exits_2(tmp_path, capsys, monkeypatch, top):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(top))
    monkeypatch.chdir(tmp_path)          # the default output directory is ./out
    assert main(["solve", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": "a config must be a JSON object"}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("degree, quad, key", [
    (1, {"volume": 1}, "volume"), (2, {"volume": 1}, "volume"), (2, {"edge": 1}, "edge"),
    (2, {"volume": 3, "edge": 2}, "edge"), (3, {"volume": 2}, "volume"),
    (3, {"volume": 3, "edge": 4}, "volume"),
], ids=lambda o: json.dumps(o))
def test_quad_orders_that_cannot_integrate_the_degree_exit_2(tmp_path, capsys, degree, quad, key):
    # q Gauss points are exact to degree 2q-1, and the Q^m stiffness and the
    # edge jump products have degree 2m in each variable: q >= m+1.  Below
    # it a solve used to exit 0 with a wrong answer (m=2 n=16 with one volume
    # point per axis reported L2 = 5.8e2)
    cfg = tmp_path / "bad.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({"degree": degree, "quad": quad, "out_dir": str(out)}))
    assert main(["solve", "--config", str(cfg), "--mesh", "16"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and f"quad.{key} = {quad[key]}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_quad_orders_of_degree_plus_one_and_the_defaults_are_accepted(degree):
    RunConfig.from_dict({"degree": degree, "mesh_sizes": [16],
                         "quad": {"volume": degree + 1, "edge": degree + 1}}).validate()
    RunConfig.from_dict({"degree": degree, "mesh_sizes": [16],
                         "quad": {"volume": None, "edge": None, "interface": 1}}).validate()


@pytest.mark.parametrize("interface", [
    {"kind": "ellipse", "a": 0.7, "b": True},
    {"kind": "ellipse", "a": 0.7, "b": 0.5, "center": [0.0, "0.1"]},
    {"kind": "flower", "r0": 0.5, "amp": 0.1, "petals": True},
    {"kind": "line", "origin": [0.0, 0.0], "direction": [1.0, True]},
    {"kind": "trig", "ax": [0.0, 0.6], "bx": [0.0], "ay": [False], "by": [0.0, 0.6]},
], ids=lambda o: json.dumps(o))
def test_probe_geometry_refuses_non_numeric_curve_parameters(tmp_path, capsys, interface):
    # probe-geometry reads any curve, so only validate_run stands in the way
    cfg = tmp_path / "bad.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({"interface": interface, "out_dir": str(out)}))
    assert main(["probe-geometry", "--config", str(cfg), "--mesh", "16"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_cell_size_times_curvature_is_bounded_by_one_half(tmp_path, capsys):
    # at n=8 the cell size is 1/4: circle(0.51) gives 0.490 and is accepted,
    # circle(0.45) gives 0.556 and is refused
    RunConfig.from_dict({"interface": {"kind": "circle", "radius": 0.51},
                         "mesh_sizes": [8]}).validate_run()
    cfg = tmp_path / "c.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({"interface": {"kind": "circle", "radius": 0.45}, "out_dir": str(out)}))
    assert main(["probe-geometry", "--config", str(cfg), "--mesh", "8"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": (
        "mesh n=8: cell size * max curvature = 0.556 > 1/2; refine the mesh or flatten "
        "the interface")}
    assert not out.exists()


@pytest.mark.parametrize("petals", [2.5, 0, -3, True])
def test_flower_refuses_petals_that_are_not_integers_of_at_least_one(tmp_path, capsys, petals):
    # a fractional count would be truncated to a flower of another shape
    cfg = tmp_path / "bad.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({"interface": {"kind": "flower", "r0": 0.5, "amp": 0.05,
                                             "petals": petals}, "out_dir": str(out)}))
    assert main(["probe-geometry", "--config", str(cfg), "--mesh", "16"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": "interface.petals must be an integer >= 1"}
    assert not out.exists()


@pytest.mark.parametrize("mesh", ["16", "16,16"])
def test_probe_geometry_fits_no_slope_through_one_mesh_size(tmp_path, capsys, mesh):
    # a slope needs two distinct h: one level, or one size twice, gives NaN
    # slopes and no warning from a degenerate fit (the suite's warnings are
    # errors)
    out = tmp_path / "g"
    assert main(["probe-geometry", "--mesh", mesh, "--out", str(out)]) == 0
    probes = json.loads((out / "geometry_probes.json").read_text())
    assert len(probes["levels"]) == len(mesh.split(","))
    assert all(lv["t_dev"] > 0 for lv in probes["levels"])
    assert all(np.isnan(probes[f"slope_{k}"]) for k in ("t_dev", "dt_dev", "det_dev"))
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("slopes: T-id nan, DT-I nan, det nan\n", "")


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


@pytest.mark.parametrize("m", [2, 3])
def test_cli_solve_space_diagnostics_meet_conformity_contract(tmp_path, m):
    out = tmp_path / "run"
    assert main(["solve", "--mesh", "16", "--degree", str(m), "--out", str(out)]) == 0
    with open(out / "space_diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == json.loads((out / "solve_report.json").read_text())[
        "mesh"]["interface_elements"]
    for row in rows:
        for key in ("max_value_jump", "max_flux_jump", "max_weak_residual"):
            assert float(row[key]) <= 1e-9, (row["element"], key, row[key])


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


def test_cli_convergence_with_given_sigma0_reports_no_trace_constant(tmp_path):
    # the trace probe runs only for an automatic penalty
    out = tmp_path / "c"
    assert main(["convergence", "--mesh", "8", "--degree", "1", "--sigma0", "5",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "convergence_report.json").read_text())
    assert rep["sigma0"] == 5.0
    assert np.isnan(rep["trace_constant"])


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


def test_cli_probe_coercivity_with_given_sigma0_reports_no_trace_constant(tmp_path):
    # the trace probe runs only for an automatic penalty
    out = tmp_path / "c"
    assert main(["probe-coercivity", "--mesh", "8", "--degree", "1", "--sigma0", "20",
                 "--out", str(out)]) == 0
    probe = json.loads((out / "coercivity_probe.json").read_text())
    assert probe["sigma0"] == 20.0
    assert np.isnan(probe["trace_constant"])
    assert probe["min_ratio"] >= 0.25


def test_cli_probe_coercivity_reads_every_level_at_one_penalty(tmp_path):
    # the auto penalty is probed on the first level and reused on the next
    out = tmp_path / "c"
    assert main(["probe-coercivity", "--mesh", "8,16", "--degree", "1", "--out", str(out)]) == 0
    probe = json.loads((out / "coercivity_probe.json").read_text())
    case, box = RunConfig().manufactured_case(), (-1, 1, -1, 1)
    sigma0, ct = auto_sigma0(setup_level(case, box, 8, 1))
    assert (probe["sigma0"], probe["trace_constant"], probe["m"]) == (sigma0, ct, 1)
    for n, level in zip((8, 16), probe["levels"], strict=True):
        spaces = setup_level(case, box, n, 1)
        system = assemble(spaces, sigma0, case.f, case.dirichlet, with_norm_grams=True)
        assert level == {"n": n, "h": spaces.mesh.h, "ratio": coercivity_ratio(system)}
    assert probe["min_ratio"] == min(lv["ratio"] for lv in probe["levels"]) >= 0.5


def test_cli_probes_build_their_levels_at_the_configured_quad(tmp_path):
    # probe-trace and probe-coercivity read the quad block, as solve does
    quad = {"volume": 5, "edge": 6}
    cfg = tmp_path / "quad.json"
    cfg.write_text(json.dumps({"degree": 1, "mesh_sizes": [8, 16], "quad": quad}))
    for cmd in ("probe-trace", "probe-coercivity"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
    trace = json.loads((tmp_path / "probe-trace" / "trace_probes.json").read_text())
    probe = json.loads((tmp_path / "probe-coercivity" / "coercivity_probe.json").read_text())
    case, box = RunConfig().manufactured_case(), (-1, 1, -1, 1)
    for n, level in zip((8, 16), trace["levels"], strict=True):
        spaces = setup_level(case, box, n, 1, quad)
        assert level["max"] == max(loop_trace_constant(spaces, e)
                                   for e in spaces.tags.interface.elements)
    assert probe["sigma0"] == auto_sigma0(setup_level(case, box, 8, 1, quad))[0]
    assert probe["sigma0"] != auto_sigma0(setup_level(case, box, 8, 1))[0]   # the orders matter


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


def test_interface_through_a_mesh_vertex_names_the_vertex(tmp_path, capsys):
    # circle(0.625) passes through the vertex (-0.375, -0.5) whenever 16
    # divides n (a 3-4-5 triangle), so refining cannot help: the message
    # names the vertex and says to perturb the domain or the interface
    cfg = tmp_path / "c.json"
    out = tmp_path / "o"
    cfg.write_text(json.dumps({"interface": {"kind": "circle", "radius": 0.625},
                               "out_dir": str(out)}))
    assert main(["solve", "--config", str(cfg), "--mesh", "32", "--degree", "1"]) == 1
    error = json.loads((out / "error.json").read_text())
    assert json.loads(capsys.readouterr().err) == error
    assert error == {"error": "AmbiguousCut", "message": (
        "element 233: 1 interface crossings, expected 2; the interface passes through "
        "the mesh vertex (-0.375, -0.5), which every refinement keeps; perturb the "
        "domain or the interface")}


def test_nan_solve_residual_is_a_nonconvergence(tmp_path, capsys, monkeypatch):
    # a sparse solve that returns NaN, as a singular factorization does,
    # gives a NaN residual, which is not above 1e-11
    monkeypatch.setattr(assembly.spla, "spsolve", lambda S, F: np.full(len(F), np.nan))
    out = tmp_path / "o"
    assert main(["solve", "--mesh", "8", "--degree", "1", "--out", str(out)]) == 1
    error = json.loads((out / "error.json").read_text())
    assert json.loads(capsys.readouterr().err) == error
    assert error["error"] == "NonConvergence"
    assert not (out / "errors.csv").exists()


def test_huge_penalty_solves_without_overflow_warnings():
    # the library does not validate: sigma0 = 1e300 keeps the penalty finite
    # and puts entries near 1e302 into S and F; the residual and the load
    # are scaled by max|F| before their norms, which would overflow to inf
    # otherwise (a RuntimeWarning, an error under this suite's warning filter)
    case = RunConfig().manufactured_case()
    spaces = setup_level(case, (-1, 1, -1, 1), 8, 1)
    coef = solve(assemble(spaces, 1e300, case.f, case.dirichlet))
    assert np.isfinite(coef).all()
    assert np.isfinite(list(error_norms(coef, case, spaces, 1e300).values())).all()


@pytest.mark.parametrize("override", [{"sigma0": 1.0000001e6}, {"sigma0": 1.0, "beta_plus": 1e5},
                                      {"sigma0": 2.0, "beta_minus": 1e-300, "beta_plus": 1e-10}])
def test_penalty_scale_beyond_1e8_is_refused(override):
    # a huge sigma0 * (beta+/beta-)^2 ruins the solution although the solve's
    # residual meets its contract; a ratio whose square overflows reads inf
    with pytest.raises(ValueError, match=r"^sigma0 \* \(beta_plus / beta_minus\)\^2 = .+ > 1e8"):
        RunConfig.from_dict(override).validate_run()
    RunConfig.from_dict({**override, "sigma0": "auto"}).validate_run()


@pytest.mark.parametrize("sigma0, rc", [("1e150", 2), ("1e6", 0)])
def test_cli_refuses_a_penalty_scale_beyond_1e8(tmp_path, capsys, sigma0, rc):
    # 1e6 * (10 / 1)^2 is the bound itself
    out = tmp_path / "o"
    assert main(["solve", "--mesh", "8", "--degree", "1", "--sigma0", sigma0,
                 "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc == 2:
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "config", "message": (
            "sigma0 * (beta_plus / beta_minus)^2 = 1e+152 > 1e8, beyond which the solve "
            "loses its accuracy; lower sigma0")}
        assert not out.exists()
    else:
        assert err == "" and (out / "errors.csv").exists()


@pytest.mark.parametrize("command", ["convergence", "probe-geometry", "probe-trace",
                                     "probe-coercivity"])
def test_dump_system_beside_solve_is_a_config_error(tmp_path, capsys, command):
    # only solve assembles a system to dump
    out = tmp_path / "o"
    assert main([command, "--mesh", "8,16", "--degree", "1", "--dump-system",
                 "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "message": f"--dump-system is read by solve only, not by {command}"}
    assert not out.exists()


def test_runtime_error_with_an_unwritable_output_still_exits_1(tmp_path, capsys, monkeypatch):
    # error.json goes into the output directory; when it cannot be written
    # there the error is still reported on stderr and the exit code is 1
    def fail(cfg, out):
        shutil.rmtree(out)
        out.write_text("")        # a file where the output directory was
        raise FrenetIfeError("the run failed")

    monkeypatch.setitem(COMMANDS, "solve", fail)
    out = tmp_path / "o"
    assert main(["solve", "--mesh", "8", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "FrenetIfeError",
                                                   "message": "the run failed"}
    assert out.read_text() == ""


@pytest.mark.parametrize("command", ["solve", "probe-geometry"])
def test_output_directory_that_cannot_be_made_is_a_config_error(tmp_path, capsys, command):
    # a regular file stands where a parent of the output directory should be
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, "--mesh", "8", "--out", str(blocker / "o")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and str(blocker) in error["message"]
    assert blocker.read_text() == ""
