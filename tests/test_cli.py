import json


import numpy as np
import pytest

from porousflow import cases, cli, scheme
from porousflow.cli import main, parse_config_file
from porousflow.fem import eval_field_many, interpolate, zero_field
from porousflow.mesh import locate_many
from porousflow.verification import EocRecord
from snapshot_reference import snapshot_text_reference


def run_cli(*argv):
    return main(list(argv))


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("compile") == 2
    assert run_cli("simulate", "two-layer", "--frobnicate") == 2


def test_show_config_two_layer(capsys):
    assert run_cli("simulate", "two-layer", "--show-config") == 0
    text = capsys.readouterr().out
    cfg = {k.strip(): v.strip() for k, v in
           (line.split("=", 1) for line in text.strip().splitlines())}
    assert float(cfg["rho"]) == 9.951e-1
    assert float(cfg["mu"]) == 8.89e-3
    assert float(cfg["d_p"]) == 5e-2
    assert float(cfg["eps"]) == 1.0 / 360.0
    assert float(cfg["t_final"]) == 5.0
    assert int(cfg["n"]) == 120
    assert float(cfg["tau"]) == 3.0 / 120.0
    assert cfg["x_extent"] == "(0.0, 3.0)"
    assert cfg["y_extent"] == "(0.0, 1.0)"


def test_show_config_sinusoidal(capsys):
    assert run_cli("simulate", "sinusoidal", "--show-config") == 0
    text = capsys.readouterr().out
    cfg = {k.strip(): v.strip() for k, v in
           (line.split("=", 1) for line in text.strip().splitlines())}
    assert float(cfg["gamma0"]) == 0.15
    assert float(cfg["gamma1"]) == 0.65
    assert int(cfg["n"]) == 300
    assert float(cfg["t_final"]) == 5.0


CONFIG_TEXT = {
    "two-layer": """\
case = 'two-layer'
n = 12
tau = 0.25
t_final = 1.0
mu = 0.00889
rho = 0.9951
d_p = 0.05
a = 150.0
b = 1.75
out_dir = {out_dir}
snapshot_every = 10
diagnostics = True
x_extent = (0.0, 3.0)
y_extent = (0.0, 1.0)
eps = 0.002777777777777778
""",
    "sinusoidal": """\
case = 'sinusoidal'
n = 16
tau = 0.5890486225480862
t_final = 2.0
mu = 0.00889
rho = 0.9951
d_p = 0.05
a = 150.0
b = 1.75
out_dir = {out_dir}
snapshot_every = 10
diagnostics = True
x_extent = (0.0, 9.42477796076938)
y_extent = (0.0, 3.141592653589793)
gamma0 = 0.15
gamma1 = 0.65
""",
}


@pytest.mark.parametrize("case, n, t_final", [("two-layer", "12", "1.0"),
                                              ("sinusoidal", "16", "2.0")])
def test_config_txt_is_the_recorded_text(tmp_path, capsys, case, n,
                                         t_final):
    # every key, in order; fed back, the file shows as itself
    out = tmp_path / "run"
    assert run_cli("simulate", case, "--n", n, "--t-final", t_final,
                   "--out-dir", str(out)) == 0
    capsys.readouterr()
    expected = CONFIG_TEXT[case].format(out_dir=repr(str(out)))
    assert (out / "config.txt").read_text() == expected
    assert run_cli("simulate", case, "--config", str(out / "config.txt"),
                   "--show-config") == 0
    assert capsys.readouterr().out == expected


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# defaults\nn = 24\nsnapshot_every = 5\n")
    assert run_cli("simulate", "two-layer", "--config", str(cfg_file),
                   "--show-config") == 0
    text = capsys.readouterr().out
    assert "n = 24" in text
    assert "snapshot_every = 5" in text
    assert run_cli("simulate", "two-layer", "--config", str(cfg_file),
                   "--n", "12", "--show-config") == 0
    assert "n = 12" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("t_finl = 2\ntau = 0.1\n", "error: unknown config key 't_finl'"),
    ("case = 'sinusoidal'\n", "error: config key 'case' = 'sinusoidal'"),
    ("eps = 0.01\n", "error: config key 'eps' = '0.01'"),
    ("mu = 5.0\n", "error: config key 'mu' = '5.0'"),
])
def test_config_file_rejects_keys_it_cannot_set(tmp_path, capsys, text,
                                                message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    assert run_cli("simulate", "two-layer", "--config", str(cfg_file),
                   "--show-config") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("n = 8.0\n", "error: config key 'n' = '8.0' is not an int\n"),
    ("tau = abc\n", "error: config key 'tau' = 'abc' is not a float\n"),
    ("snapshot_every = 2.5\n",
     "error: config key 'snapshot_every' = '2.5' is not an int\n"),
    ("n = 8\ntau = 0.1\n# again\nn = 12\n",
     "error: config key 'n' is set on line 1 and again on line 4\n"),
])
def test_config_file_value_that_cannot_be_read_writes_nothing(
        tmp_path, capsys, text, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--config", str(cfg_file),
                   "--t-final", "0.5", "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""
    assert not out.exists()


def test_written_config_feeds_back(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", "8", "--t-final", "0.4",
                   "--out-dir", str(out)) == 0
    capsys.readouterr()
    written = (out / "config.txt").read_text()
    assert run_cli("simulate", "two-layer", "--config",
                   str(out / "config.txt"), "--show-config") == 0
    assert capsys.readouterr().out == written


@pytest.mark.parametrize("quoted", ["'runs/#3'", '"runs/#3"'])
def test_hash_in_a_quoted_value_is_no_comment(tmp_path, capsys, quoted):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"out_dir = {quoted}  # a comment\n"
                        "n = 12 # 24\n")
    assert parse_config_file(cfg_file) == {"out_dir": "runs/#3", "n": "12"}
    # the shown configuration feeds back as itself
    assert run_cli("simulate", "two-layer", "--out-dir", "runs/#3",
                   "--show-config") == 0
    shown = capsys.readouterr().out
    assert "out_dir = 'runs/#3'\n" in shown
    cfg_file.write_text(shown)
    assert run_cli("simulate", "two-layer", "--config", str(cfg_file),
                   "--show-config") == 0
    assert capsys.readouterr().out == shown


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("simulate", "two-layer", "--n", "12", "--t-final", "0.5",
                   "--snapshot-every", "2", "--out-dir", str(out))
    assert code == 0
    # N_T = floor(0.5 / 0.25) = 2 -> snapshots at steps 0 and 2
    snaps = sorted(out.glob("two-layer_*.vtk"))
    assert len(snaps) == 2
    assert snaps[0].name == "two-layer_000000.vtk"
    assert snaps[1].name == "two-layer_000002.vtk"
    assert (out / "config.txt").exists()
    assert (out / "series.csv").exists()
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0].startswith("t,min_velocity_magnitude")
    assert len(lines) == 3
    diag = [json.loads(line)
            for line in (out / "diagnostics.jsonl").read_text().splitlines()]
    assert [d["step"] for d in diag] == [1, 2]
    assert all(d["incompressibility_residual"] <= 1e-10 for d in diag)
    assert all(isinstance(d["krylov_iterations"], int) for d in diag)
    assert all(isinstance(d["factorized"], bool) for d in diag)
    # one record per step, with exactly these keys and value types
    schema = {"step": int, "t": float, "velocity_l2": float,
              "pressure_l2": float, "incompressibility_residual": float,
              "algebraic_residual": float, "clamped_feet": int,
              "krylov_iterations": int, "factorized": bool}
    for d in diag:
        assert {key: type(value) for key, value in d.items()} == schema


def simulate_two_layer_12(out):
    """``simulate two-layer --n 12`` for one step, a snapshot at each."""
    assert run_cli("simulate", "two-layer", "--n", "12", "--t-final", "0.25",
                   "--snapshot-every", "1", "--out-dir", str(out)) == 0
    return cases.get_case("two-layer")


def test_snapshot_magnitude_consistent(tmp_path):
    out = tmp_path / "run"
    case = simulate_two_layer_12(out)
    mesh, ctx, setup = cases.build_setup(case, 12, t_final=0.25)
    fields = []
    scheme.run(setup, [lambda k, t, u, p, d: fields.append((u, p, t))])
    u, p, t = fields[-1]
    assert (out / "two-layer_000001.vtk").read_text() \
        == snapshot_text_reference(u, p, case.porosity, mesh, t)
    # the written vertex velocities are the field's values at the vertices
    uv = u.node_values()[:mesh.n_vertices]
    tri, bary, inside = locate_many(mesh, mesh.vertices)
    assert inside.all()
    at_vertices = eval_field_many(u, tri, bary)
    assert np.abs(np.sqrt((at_vertices ** 2).sum(axis=1))
                  - np.sqrt((uv ** 2).sum(axis=1))).max() < 1e-12
    phi = case.porosity.value(mesh.vertices)
    assert phi.min() >= 0.4 - 1e-12
    assert phi.max() <= 0.8 + 1e-12


def test_snapshot_initial_state_parseable(tmp_path):
    out = tmp_path / "run"
    case = simulate_two_layer_12(out)
    mesh, ctx, _ = cases.build_setup(case, 12, t_final=0.25)
    u0 = interpolate(ctx.vspace, case.u_initial)
    p0 = zero_field(ctx.pspace)
    assert (out / "two-layer_000000.vtk").read_text() \
        == snapshot_text_reference(u0, p0, case.porosity, mesh, 0.0)
    assert p0.coefficients == pytest.approx(np.zeros(ctx.pspace.dof_count))
    # inflow maximum of the initial profile
    uv = u0.node_values()[:mesh.n_vertices]
    assert np.sqrt((uv ** 2).sum(axis=1)).max() == pytest.approx(0.25,
                                                                abs=1e-12)


def test_outputs_deterministic(tmp_path):
    out = tmp_path / "run"
    names = ("two-layer_000001.vtk", "series.csv", "config.txt")
    run_cli("simulate", "two-layer", "--n", "12", "--t-final", "0.25",
            "--snapshot-every", "1", "--out-dir", str(out))
    first = {name: (out / name).read_bytes() for name in names}
    run_cli("simulate", "two-layer", "--n", "12", "--t-final", "0.25",
            "--snapshot-every", "1", "--out-dir", str(out))
    for name in names:
        assert (out / name).read_bytes() == first[name]


def test_eoc_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "eoc"
    code = run_cli("eoc", "--n-list", "4,8", "--out-dir", str(out))
    assert code == 0  # no slope checks below N=16
    text = capsys.readouterr().out
    assert "Er1" in text
    lines = (out / "eoc.csv").read_text().splitlines()
    assert lines[0] == "N,h,Er1,slope1,Er2,slope2"
    assert len(lines) == 3


@pytest.mark.parametrize("slopes, code, verdicts", [
    ((2.5, 2.0), 1, ("Er1: 2.50 in [1.7, 2.4] -> FAIL",
                     "Er2: 2.00 in [1.7, 2.6] -> PASS")),
    ((2.0, 2.5), 0, ("Er1: 2.00 in [1.7, 2.4] -> PASS",
                     "Er2: 2.50 in [1.7, 2.6] -> PASS")),
])
def test_eoc_checks_each_slope_against_its_own_band(tmp_path, capsys,
                                                    monkeypatch, slopes,
                                                    code, verdicts):
    """The Er1 slope has the band [1.7, 2.4] of acceptance criterion 1 and
    the Er2 slope [1.7, 2.6], so 2.5 fails for Er1 and passes for Er2."""
    def study(n_list, t_final, progress):
        return [EocRecord(n=8, h=0.4, er1=0.1, er2=0.1, final_rel1=0.1,
                          final_rel2=0.1),
                EocRecord(n=16, h=0.2, er1=0.02, er2=0.02, slope1=slopes[0],
                          slope2=slopes[1], final_rel1=0.02,
                          final_rel2=0.02)]

    monkeypatch.setattr(cli, "run_eoc", study)
    assert run_cli("eoc", "--n-list", "8,16",
                   "--out-dir", str(tmp_path / "eoc")) == code
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("slope check")]
    assert checks == [f"slope check N=16 {v}" for v in verdicts]


def test_validate_porosity_two_layer_reports_failure(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("validate-porosity", "two-layer", "--resolution", "256",
                   "--out", str(out))
    assert code == 0  # the command succeeds; the report carries the verdict
    text = capsys.readouterr().out
    assert "FAIL" in text
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert data["max_margin"] == pytest.approx(116.0, abs=8.0)


def test_validate_porosity_sinusoidal_passes(capsys):
    assert run_cli("validate-porosity", "sinusoidal",
                   "--resolution", "128") == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_validate_porosity_rejects_too_small_resolution(capsys, resolution):
    assert run_cli("validate-porosity", "two-layer",
                   "--resolution", resolution) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: resolution must be at least 2")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_check_passes(capsys):
    assert run_cli("check") == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 8
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "all checks passed"


CHECK_OUTPUT = """\
PASS  quadrature degree 5 monomial exactness  (worst < 1e-14)
PASS  quadrature degree 9 monomial exactness  (worst < 1e-14)
PASS  drag coefficients match compositional forms  (worst < 1e-12)
PASS  transport identity (divergence-free field)  (relative residual < 1e-6)
PASS  two-step material derivative order  (order 2.00)
PASS  mixed-element polynomial exactness  (u and p nodal errors <= 1e-10)
PASS  two-layer porosity flagged inadmissible  (margin 116.6)
PASS  sinusoidal porosity admissible  (margin -24.5)
all checks passed
"""


def test_check_output_is_the_recorded_text(capsys):
    # the round-off checks print their bounds, so the text survives any
    # reordering of floating-point work
    assert run_cli("check") == 0
    assert capsys.readouterr().out == CHECK_OUTPUT


def test_check_fails_on_the_pressure_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "polynomial_exactness_check",
                        lambda ctx: (0.0, 1.0))
    assert run_cli("check") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] \
        == ["FAIL  mixed-element polynomial exactness  "
            "(u and p nodal errors <= 1e-10)"]
    assert lines[-1] == "1 check(s) failed"


@pytest.mark.parametrize("flag, value", [("--t-final", "inf"),
                                         ("--tau", "nan")])
def test_simulate_rejects_non_finite_times(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", "8", flag, value,
                   "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert f"config field {flag[2:].replace('-', '_')} must be" \
        in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_rejects_non_positive_n(tmp_path, capsys, n):
    # checked before the default step is taken from the cell count
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", n,
                   "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: config field n must be positive and "
                            f"finite, got {n}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("show", [True, False])
def test_simulate_rejects_n_below_the_coarsest_mesh(tmp_path, capsys, source,
                                                    show):
    # n = 1 is positive but below the coarsest mesh (n = 2), so not even
    # --show-config may print it
    out = tmp_path / "run"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n = 1\n")
    argv = ["simulate", "two-layer", "--tau", "0.1", "--out-dir", str(out)]
    argv += ["--n", "1"] if source == "flag" else ["--config", str(cfg_file)]
    assert run_cli(*argv, *(["--show-config"] if show else [])) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: config field n must be at least 2, got 1\n"
    assert captured.out == ""
    assert not out.exists()


def test_simulate_without_steps_writes_nothing(tmp_path, capsys):
    # tau = 3/8 exceeds t_final = 0.3
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", "8", "--t-final", "0.3",
                   "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tau exceeds the final time")
    assert captured.out == ""
    assert not out.exists()


def test_simulate_with_overflowing_step_count_writes_nothing(tmp_path,
                                                             capsys):
    # t_final / tau overflows to inf
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", "4", "--tau", "1e-308",
                   "--t-final", "1e308", "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: t_final = 1e+308 over tau = 1e-308 "
                            "overflows; no step count\n")
    assert captured.out == ""
    assert not out.exists()


def test_simulate_with_a_mass_weight_beyond_the_factor_writes_nothing(
        tmp_path, capsys):
    # 1.5 rho / tau overflows the float32 step factor
    out = tmp_path / "run"
    assert run_cli("simulate", "two-layer", "--n", "4", "--tau", "1e-300",
                   "--t-final", "1", "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: tau = 1e-300 gives the mass weight "
                            "1.5 rho / tau = 1.49e+300, beyond the range of "
                            "the step factor's float32\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--n-list", "8", "--t-final", "inf"),
     "error: t_final must be positive and finite, got inf"),
    (("--n-list", "8", "--t-final", "-1"),
     "error: t_final must be positive and finite, got -1.0"),
    (("--n-list", "16,8"), "error: resolutions must be ascending"),
    (("--n-list", "0,8"), "error: resolutions must be positive"),
    (("--n-list", "4", "--t-final", "0.5"), "error: tau = pi/4 exceeds"),
    (("--n-list", "4,4"), "error: resolutions must be ascending"),
    (("--n-list", "1,2", "--t-final", "4"),
     "error: resolutions must be positive cell counts of at least 2, got "
     "[1, 2]"),
    (("--n-list", "8,x"),
     "error: --n-list '8,x' is not a comma-separated list of ints\n"),
])
def test_eoc_rejects_bad_inputs_before_writing(tmp_path, capsys, argv,
                                               message):
    out = tmp_path / "eoc"
    assert run_cli("eoc", *argv, "--out-dir", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""   # no "running N=..." line
    assert not out.exists()
