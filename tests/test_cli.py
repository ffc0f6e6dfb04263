import json

import pytest

from crosscap import cli
from crosscap.errors import ConsistencyError
from crosscap.germs import MODEL_S1_PLUS
from crosscap.reports import to_json

EX4 = "u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v"
EX5 = "u; v^2; v^3 - v*s^2 + u^2*v"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out[out.index("{"):])


# -- analyze -----------------------------------------------------------------------


def test_analyze_s1_point(capsys):
    code, out = run(capsys, "analyze", "--germ", MODEL_S1_PLUS, "--point", "0,0")
    assert code == 0
    rep = last_json(out)
    assert rep["deformation"]["classification"] == "S1Plus"
    assert rep["rank"] == 1
    assert rep["whitney_umbrella"] is False
    assert rep["curvature_parabola"]["kind"] == "half-line"


def test_analyze_cross_cap(capsys):
    code, out = run(capsys, "analyze", "--germ", "u; u*v; v^2", "--point", "0,0")
    assert code == 0
    rep = last_json(out)
    assert rep["whitney_umbrella"] is True
    assert "invariants" in rep


def test_analyze_regular_point(capsys):
    code, out = run(
        capsys, "analyze", "--germ", MODEL_S1_PLUS, "--point", "0,0", "--s", "1"
    )
    assert code == 0
    rep = last_json(out)
    assert rep["rank"] == 2
    assert rep["regular"] is True
    assert "invariants" not in rep


def test_analyze_expands_the_point_once(capsys, jet_at_orders):
    code, out = run(capsys, "analyze", "--germ", "u; u*v; v^2", "--point", "0,0")
    assert code == 0
    assert last_json(out)["whitney_umbrella"] is True
    assert jet_at_orders == [2]


GP_GERM = "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"  # the README gauss-probe germ


@pytest.mark.parametrize(
    "option",
    [
        ("analyze", "--germ", MODEL_S1_PLUS, "--s", "nan"),
        ("analyze", "--germ", MODEL_S1_PLUS, "--point", "nan,0"),
        ("focal", "--germ", MODEL_S1_PLUS, "--s", "nan"),
        ("focal", "--germ", MODEL_S1_PLUS, "--s", "inf"),
        ("focal", "--germ", MODEL_S1_PLUS, "--s=-inf"),
        ("gauss-probe", "--germ", GP_GERM, "--s-tilde", "nan"),
        ("gauss-probe", "--germ", GP_GERM, "--s-tilde", "inf"),
        ("gauss-probe", "--germ", GP_GERM, "--s-tilde=-inf"),
        ("mesh", "--germ", MODEL_S1_PLUS, "--s", "nan", "--nu", "2", "--nv", "2"),
        ("mesh", "--germ", MODEL_S1_PLUS, "--s", "inf", "--nu", "2", "--nv", "2"),
        ("mesh", "--germ", MODEL_S1_PLUS, "--s=-inf", "--nu", "2", "--nv", "2"),
        ("mesh", "--germ", "u; v; u^9999", "--u-range=-2:2", "--nu", "2", "--nv", "2"),
        # a grid ratio this close to 1 leaves the Richardson limits unsettled
        ("trace", "--germ", "u; v^2; u^2 + v^3 + u^2*v + s*v",
         "--s-tilde-grid", "0.1:1.0000001:6"),
    ],
)
def test_analyze_non_finite_input_is_domain_error(capsys, tmp_path, option):
    code, out = run(capsys, *option, "--out", str(tmp_path))
    assert code == 3
    assert last_json(out)["error"]["type"] == "math-domain"
    assert list(tmp_path.iterdir()) == []  # e.g. no mesh.obj with non-finite vertices


TRACE_GERM = "u; v^2; u^2 + v^3 + u^2*v + s*v"  # the README trace germ
FOCAL_GERM = "u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v"  # the README focal germ


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["gauss-probe", "--germ", TRACE_GERM, "--s-tilde", "inf"],
        ["gauss-probe", "--germ", TRACE_GERM, "--s-tilde", "1e200"],
        ["trace", "--germ", TRACE_GERM, "--s-tilde-grid", "inf:2:3"],
        ["trace", "--germ", TRACE_GERM, "--s-tilde-grid", "1e200:2:5"],
        ["analyze", "--germ", TRACE_GERM, "--s", "inf", "--point", "0,0"],
        ["focal", "--germ", FOCAL_GERM, "--s", "inf"],
        # finite s whose locus slice overflows through the s^2 term
        ["focal", "--germ", FOCAL_GERM + " + v*s^2", "--s=-1e160"],
        # finite inputs that overflow numpy arithmetic (the Whitney-test
        # norms, the jet product) or a Python float power (D's d_uuv^2)
        ["analyze", "--germ", TRACE_GERM, "--s", "1e200", "--point", "0,0"],
        ["analyze", "--germ", "u; v^2; 1e300*u^2 + v^3", "--point", "1e10,0"],
        ["analyze", "--germ", "u; u*v + 1e100*u^2; 1e100*v^2", "--point", "0,0"],
    ],
)
def test_non_finite_parameter_is_a_quiet_domain_error(capfd, argv):
    """Non-finite parameters are rejected before numpy computes with them,
    and floating-point overflow anywhere in a command is a math-domain
    error, so stderr stays empty (numpy warnings would fail this test)."""
    code = cli.main(argv)
    out, err = capfd.readouterr()
    assert code == 3
    assert json.loads(out)["error"]["type"] == "math-domain"
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["mesh", "--germ", MODEL_S1_PLUS, "--u-range", "-1:1"],
        ["analyze", "--germ", MODEL_S1_PLUS, "--order", "eight"],
        ["no-such-command"],
        ["analyze", "--germ", MODEL_S1_PLUS, "--point", "abc,0"],
        ["trace", "--germ", MODEL_S1_PLUS, "--s-tilde-grid", "0.1:x:3"],
        ["trace", "--germ", MODEL_S1_PLUS, "--s-tilde-grid", "0.1:2:3.5"],
        ["trace", "--germ", MODEL_S1_PLUS, "--s-tilde-grid", "nan:2:3"],
        ["mesh", "--germ", MODEL_S1_PLUS, "--u-range=a:1"],
        ["analyze", "--file", "/"],
        ["analyze", "--germ", "u; v^2; " + "(" * 5000 + "u" + ")" * 5000],
        ["analyze", "--germ", "u; v^2; " + "-" * 5000 + "u"],
        ["analyze", "--germ", "u; v^2; " + "sqrt(" * 300 + "1 + u" + ")" * 300],
        ["analyze", "--germ", "u; v^2; " + " + ".join(["u"] * 2000)],
    ],
)
def test_argument_errors_are_json_usage_errors(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"


def test_analyze_bad_germ_usage_error(capsys):
    code, out = run(capsys, "analyze", "--germ", "u; v")
    assert code == 2
    assert last_json(out)["error"]["type"] == "usage"


def test_germ_file_input(capsys, tmp_path):
    src = tmp_path / "germ.txt"
    src.write_text("# deformation source\nu\nv^2\nv*(u^2 + v^2) + s*v\n")
    code, out = run(capsys, "analyze", "--file", str(src), "--point", "0,0")
    assert code == 0
    assert last_json(out)["deformation"]["classification"] == "S1Plus"


def test_unreadable_paths_are_usage_errors(capsys, tmp_path):
    src = tmp_path / "germ.txt"
    src.write_bytes(b"\xff\xfeu; v^2; v*(u^2 + v^2) + s*v\n")
    code, out = run(capsys, "analyze", "--file", str(src))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"
    code, out = run(capsys, "analyze", "--file", str(tmp_path / "missing.txt"))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"
    code, out = run(capsys, "focal", "--germ", EX4, "--s", "-1", "--out", str(src))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "usage"


def test_order_range_enforced(capsys):
    code, out = run(
        capsys, "analyze", "--germ", MODEL_S1_PLUS, "--order", "3"
    )
    assert code == 2


# -- normal-form -------------------------------------------------------------------


def test_normal_form_report(capsys, tmp_path):
    code, out = run(
        capsys,
        "normal-form",
        "--germ",
        MODEL_S1_PLUS,
        "--out",
        str(tmp_path),
    )
    assert code == 0
    rep = last_json(out)
    assert rep["classification"] == "S1Plus"
    assert rep["parameter_normalized"] is True
    assert rep["monomials"]["a21"][0] == pytest.approx(1.0, abs=1e-10)
    on_disk = json.loads((tmp_path / "normal_form.json").read_text())
    assert on_disk == rep


# -- trace -------------------------------------------------------------------------


def test_trace_files_and_determinism(capsys, tmp_path):
    args = (
        "trace",
        "--germ",
        "u; v^2; u^2 + v^3 + u^2*v + s*v",
        "--s-tilde-grid",
        "0.1:2:5",
        "--out",
        str(tmp_path),
    )
    code, _ = run(capsys, *args)
    assert code == 0
    csv1 = (tmp_path / "trace.csv").read_bytes()
    json1 = (tmp_path / "trace_asymptotics.json").read_bytes()
    code, _ = run(capsys, *args)
    assert code == 0
    assert (tmp_path / "trace.csv").read_bytes() == csv1
    assert (tmp_path / "trace_asymptotics.json").read_bytes() == json1

    header = csv1.decode().splitlines()[0]
    assert header == "s_tilde,u_plus,u_minus,a20,a11,a02,ku_ext,ka,conic_kind"
    rep = json.loads(json1)
    assert rep["asymptotics"]["limits"]["a02"] == pytest.approx(0.5, abs=1e-5)
    assert rep["all_conics"] == ["hyperbola"]


def test_trace_down_to_small_st_keeps_the_hyperbola(capsys):
    """At st = 0.1 * 2^-11 the conic's 3x3 determinant A C^2 / 4 is 9.5e-9,
    below CONIC_TOL * scale^1.5 = 3.2e-8 for its entry scale 10; the conic
    must still count as non-degenerate because the point is a cross-cap."""
    code, out = run(capsys, "trace", "--germ", TRACE_GERM, "--s-tilde-grid", "0.1:2:12")
    assert code == 0
    rep = last_json(out)
    assert rep["all_conics"] == ["hyperbola"]
    for name, limit in rep["asymptotics"]["limits"].items():
        assert limit == pytest.approx(rep["asymptotics"]["theory"][name], abs=1e-5)


def test_trace_csv_round_trip(capsys, tmp_path):
    code, _ = run(
        capsys,
        "trace",
        "--germ",
        MODEL_S1_PLUS,
        "--s-tilde-grid",
        "0.1:2:4",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        st = float(cells[0])
        a02 = float(cells[5])
        assert abs(a02 - 1.0 / (2 * st * st)) <= 1e-12 * a02


def test_trace_empty_locus_exit_zero(capsys, tmp_path):
    code, out = run(
        capsys,
        "trace",
        "--germ",
        "u; v^2; v*(s - u^2)",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    rep = last_json(out)
    assert rep["rows"] == 0
    assert (tmp_path / "trace.csv").read_text().splitlines() == [
        "s_tilde,u_plus,u_minus,a20,a11,a02,ku_ext,ka,conic_kind"
    ]


# -- focal -------------------------------------------------------------------------


def test_focal_example4_kinds(capsys, tmp_path):
    for s, kind in (("-1", "ellipse"), ("-0.2", "hyperbola"), ("0", "two-lines")):
        code, out = run(
            capsys, "focal", "--germ", EX4, "--s", s, "--out", str(tmp_path)
        )
        assert code == 0
        assert last_json(out)["conic"]["kind"] == kind
        svg = (tmp_path / "focal.svg").read_text()
        assert 'viewBox="-5 -5 10 10"' in svg
        assert kind in svg


def test_focal_example5_parabola(capsys, tmp_path):
    code, out = run(
        capsys, "focal", "--germ", EX5, "--s", "-1", "--out", str(tmp_path)
    )
    assert code == 0
    assert last_json(out)["conic"]["kind"] == "parabola"


def test_focal_no_singular_point_is_domain_error(capsys):
    code, out = run(capsys, "focal", "--germ", MODEL_S1_PLUS, "--s", "1")
    assert code == 3
    assert last_json(out)["error"]["type"] == "math-domain"


# -- gauss-probe --------------------------------------------------------------------


def test_gauss_probe_cli(capsys):
    code, out = run(
        capsys,
        "gauss-probe",
        "--germ",
        "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s",
        "--s-tilde",
        "0.05",
    )
    assert code == 0
    rep = last_json(out)
    assert rep["agreement"] == 1
    assert rep["theta_count"] == 16 and rep["k_count"] == 8


# -- mesh --------------------------------------------------------------------------


def test_mesh_vertex_count_and_ksign(capsys, tmp_path):
    code, _ = run(
        capsys,
        "mesh",
        "--germ",
        MODEL_S1_PLUS,
        "--s",
        "-1",
        "--nu",
        "50",
        "--nv",
        "50",
        "--k-sign",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    obj = (tmp_path / "mesh.obj").read_text().splitlines()
    assert sum(1 for line in obj if line.startswith("v ")) == 2500
    assert sum(1 for line in obj if line.startswith("f ")) == 2 * 49 * 49
    signs = (tmp_path / "mesh_ksign.txt").read_text().split()
    assert len(signs) == 2500
    assert {"-1", "1"} <= set(signs)  # the sign flips across the singular segment


def test_mesh_degenerate_grid_usage_error(capsys, tmp_path):
    code, out = run(
        capsys,
        "mesh",
        "--germ",
        MODEL_S1_PLUS,
        "--nu",
        "1",
        "--nv",
        "1",
        "--out",
        str(tmp_path),
    )
    assert code == 2


# -- serialization ------------------------------------------------------------------


def test_json_floats_round_trip():
    values = [0.1, 1 / 3, 2e-17, -5.0, 123456.789e10]
    text = to_json({"values": values})
    back = json.loads(text)["values"]
    assert back == values


def test_consistency_error_maps_to_exit_4(capsys, monkeypatch):
    def boom(args):
        raise ConsistencyError("routes disagree")

    monkeypatch.setitem(cli._COMMANDS, "analyze", boom)
    code, out = run(capsys, "analyze", "--germ", MODEL_S1_PLUS)
    assert code == 4
    assert last_json(out)["error"]["type"] == "internal-consistency"
