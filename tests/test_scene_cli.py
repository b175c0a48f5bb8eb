"""Scene DSL parsing, bundled catalog health, and CLI behavior."""

import copy
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import branelab.cli
import branelab.infdef
import branelab.integrate
import branelab.scene
from branelab.cli import (bundled_scene_dir, main, resolve_scene)
from branelab.grammar import parse_field
from branelab.report import EXACT, CheckResult
from branelab.scene import SceneError, parse_scene, serialize_scene

MINIMAL = """\
scene tiny
describe just a split pair on four lines

model M
coord M x1 line
coord M y1 line
coord M x2 line
coord M y2 line

form omega @ M = dx1^dy2 + dy1^dx2
form F @ M = dx1^dx2 - dy1^dy2

check space_filling omega F
"""


def bundled_names():
    return sorted(p.stem for p in Path(bundled_scene_dir()).glob("*.scene"))


def test_minimal_scene_parses():
    s = parse_scene(MINIMAL)
    assert s.name == "tiny"
    assert len(s.checks) == 1
    assert s.checks[0].kind == "space_filling"


def test_serialization_roundtrip_is_fixed_point():
    s = parse_scene(MINIMAL)
    text = serialize_scene(s)
    again = serialize_scene(parse_scene(text))
    assert text == again


@pytest.mark.parametrize("name", [
    "cohomology_t4", "cos2_obstruction", "example_r4", "frame_11",
    "infdef_torus", "lambda_shear", "mapping_torus", "pde_failures"])
def test_bundled_scene_roundtrip(name):
    scene = resolve_scene(name)
    text = serialize_scene(scene)
    assert serialize_scene(parse_scene(text)) == text


def test_bundled_catalog_is_complete():
    assert bundled_names() == [
        "cohomology_t4", "cos2_obstruction", "example_r4", "frame_11",
        "infdef_torus", "lambda_shear", "mapping_torus", "pde_failures"]


def test_parse_error_reports_line_number():
    bad = MINIMAL.replace("check space_filling omega F",
                          "check space_filling omega nosuch")
    with pytest.raises(SceneError) as err:
        parse_scene(bad)
    assert err.value.line_no is not None


def test_duplicate_names_rejected():
    bad = MINIMAL.replace(
        "form F @ M = dx1^dx2 - dy1^dy2",
        "form omega @ M = dx1^dx2 - dy1^dy2")
    with pytest.raises(SceneError):
        parse_scene(bad)


def test_unknown_check_kind_rejected():
    bad = MINIMAL.replace("check space_filling", "check frobnicate")
    with pytest.raises(SceneError):
        parse_scene(bad)


def test_model_seals_after_first_use():
    bad = MINIMAL + "coord M extra line\n"
    with pytest.raises(SceneError):
        parse_scene(bad)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "form omega", "# inline note\nform omega")
    s = parse_scene(text)
    assert s.name == "tiny"


def scrub(report_dict):
    out = copy.deepcopy(report_dict)
    out.pop("wall_time", None)
    for chk in out.get("checks", []):
        chk.pop("wall_time", None)
    return out


def test_run_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "example_r4", "--out", str(out1)]) == 0
    assert main(["run", "example_r4", "--out", str(out2)]) == 0
    d1 = scrub(json.loads(out1.read_text()))
    d2 = scrub(json.loads(out2.read_text()))
    assert d1 == d2


def test_exit_codes(capsys):
    assert main(["run", "example_r4"]) == 0
    capsys.readouterr()
    assert main(["run", "pde_failures"]) == 0  # failures are expected there
    capsys.readouterr()
    assert main(["run", "cos2_obstruction"]) == 1
    capsys.readouterr()
    assert main(["run", "no_such_scene_anywhere"]) == 2
    capsys.readouterr()


def test_json_output_structure(capsys):
    assert main(["run", "example_r4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scene"] == "example_r4"
    assert data["seed"] == 0
    assert {c["name"] for c in data["checks"]} == {
        "space_filling(omega, F)", "brane(c)", "brane_via_J(c)"}
    assert all(c["pass"] for c in data["checks"])
    assert "sampled" in data["tolerances"]


def test_csv_output_has_header_and_rows(capsys):
    assert main(["run", "example_r4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("check,mode,pass")
    assert len(lines) == 4


def test_seed_flag_changes_report_seed(capsys):
    assert main(["run", "example_r4", "--format", "json", "--seed", "9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 9


def test_steps_flag_enters_tolerances(capsys):
    assert main(["run", "example_r4", "--format", "json",
                 "--steps", "512"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tolerances"]["flow_step"] == 1.0 / 512


def test_examples_catalog_lists_all_bundled(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in bundled_names():
        assert name in out


def test_run_accepts_scene_path(tmp_path, capsys):
    p = tmp_path / "tiny.scene"
    p.write_text(MINIMAL)
    assert main(["run", str(p)]) == 0
    assert "tiny" in capsys.readouterr().out


def test_infdef_subcommand_reports_both_checkers(capsys):
    code = main(["infdef", "infdef_torus", "--pair", "pgood",
                 "--truncation", "0"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    entry = data["pairs"]["pgood"]
    assert entry["agree"] is True
    assert entry["check_infdef"]["pass"] is True
    assert set(entry["check_infdef"]["conditions"]) == {
        "r_foliated_closed", "B_closed", "B_horizontal", "mixed_iii",
        "quad_iv"}
    assert "h1" in data["complex_slice"]


def test_infdef_subcommand_flags_failing_pair(capsys):
    code = main(["infdef", "infdef_torus", "--pair", "pbad"])
    out = capsys.readouterr().out
    assert code == 1
    data = json.loads(out)
    assert data["pairs"]["pbad"]["check_infdef"]["pass"] is False
    assert data["pairs"]["pbad"]["agree"] is True


# the standard T^4 pair pulled back by a fixed GL(4,Z) matrix; at
# truncation 2 its |d1 d0| is 8.5e-10 from rounding alone, with h1 = 4
GL_PAIR = """\
scene t4_gl

model T
coord T x1 circle
coord T y1 circle
coord T x2 circle
coord T y2 circle

form omega @ T = -1.0*dx1^dx2 + 1.0*dx1^dy2 + 1.0*dy1^dy2 - 2.0*dx2^dy2
form F @ T = 1.0*dx1^dy1 - 1.0*dx1^dy2 + 2.0*dy1^dy2 + 1.0*dx2^dy2
frame E @ T =
frame G @ T = d_x1 ; d_y1 ; d_x2 ; d_y2
candidate c = T omega F E G

"""


def run_json(tmp_path, capsys, text, *flags):
    p = tmp_path / "case.scene"
    p.write_text(text)
    code = main(["run", str(p), "--format", "json", *flags])
    return code, json.loads(capsys.readouterr().out)


def test_cohomology_check_holds_rounding_not_an_absolute_tolerance(
        tmp_path, capsys):
    code, data = run_json(tmp_path, capsys,
                          GL_PAIR + "check cohomology c truncation=2 h1=4\n")
    rec = data["checks"][0]
    assert code == 0 and rec["pass"]
    assert rec["residuals"]["d1_d0"] <= rec["details"]["d1_d0_bound"]
    assert rec["details"]["h1"] == 4
    assert rec["details"]["blocks"] == {
        "d0": {"blocks": 312, "largest": [8, 2]},
        "d1": {"blocks": 312, "largest": [8, 8]}}


def test_too_large_complex_is_an_error_record(tmp_path, capsys):
    # d0 and d1 of this complex would take 9.5 GB (d1 is 31250 x 34375)
    text = (bundled_scene_dir() / "infdef_torus.scene").read_text(
        encoding="utf-8") + "check cohomology c truncation=2\n"
    code, data = run_json(tmp_path, capsys, text)
    assert code == 1
    rec = data["checks"][-1]
    assert rec["name"] == "cohomology(c, truncation=2)"
    assert rec["mode"] == "ERROR" and rec["details"]["error"] == (
        "ValueError: the truncation-2 complex needs 9 GiB for d0 and d1, "
        "over the 2 GiB limit")
    assert all(c["pass"] for c in data["checks"][:-1])


def test_cohomology_check_fails_a_sign_flipped_d1(tmp_path, capsys,
                                                  monkeypatch):
    def flipped(c, truncation):
        cs = branelab.infdef.complex_slice(c, truncation)
        k = np.abs(cs.d0).sum(axis=1).argmax()
        i = np.abs(cs.d1[:, k]).argmax()
        cs.d1[i, k] = -cs.d1[i, k]
        return cs

    monkeypatch.setattr(branelab.scene, "complex_slice", flipped)
    code, data = run_json(tmp_path, capsys,
                          GL_PAIR + "check cohomology c truncation=1\n")
    rec = data["checks"][0]
    assert code == 1 and not rec["pass"]
    assert rec["conditions"]["d1_d0_zero"] is False
    assert rec["residuals"]["d1_d0"] > rec["details"]["d1_d0_bound"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_blowing_up_flow_is_a_failed_record_not_an_abort(tmp_path, capsys):
    text = (bundled_scene_dir() / "lambda_shear.scene").read_text(
        encoding="utf-8").split("\ncheck ")[0].replace(
        "deform shear = N omegaN FN q : 0.41421356237309515*y2",
        "deform shear = N omegaN FN q : 0.2*cos(2*pi*x1)*y2^2 "
        "+ 0.1*sin(2*pi*q)*y1*x2")
    code, data = run_json(
        tmp_path, capsys, text + "\ncheck invariance shear FN\n"
        "check closed1f shear\n", "--steps", "64")
    assert code == 1
    blown, after = data["checks"]
    assert not blown["pass"] and blown["mode"] == "ERROR"
    assert blown["details"]["error"] == (
        "FlowError: non-finite state at step 56 (q = 0.875) on the trajectory "
        "of seed point (0.704591, 0.507004, 0.302352, 0.954616)")
    assert after["name"] == "closed1f(shear)"


def test_transport_checks_share_one_gate_flow(tmp_path, capsys, monkeypatch):
    flows = []

    def counted(*args, **kwargs):
        flows.append(args[0])
        return real_flow(*args, **kwargs)

    real_flow = branelab.nearby.flow
    monkeypatch.setattr(branelab.nearby, "flow", counted)
    branelab.nearby._gate.cache_clear()
    text = (bundled_scene_dir() / "lambda_shear.scene").read_text(
        encoding="utf-8").replace(
        "check closed1f shear\ncheck invariance shear FN\n", "")
    code, data = run_json(tmp_path, capsys, text, "--steps", "64")
    assert code == 0
    assert [c["name"] for c in data["checks"]] == [
        "transport_kernel(shear, FN)", "transport_zero_slice(shear, FN)",
        "transport_fd(shear, FN)"]
    assert len(flows) == 1


def test_a_flow_is_one_sweep(tmp_path, capsys, rk4_steps):
    """A velocity that depends on the point is one RK4 sweep."""
    text = (bundled_scene_dir() / "lambda_shear.scene").read_text(
        encoding="utf-8").split("\ncheck ")[0].replace(
        ": 0.41421356237309515*y2",
        ": 0.2*sin(2*pi*x1)*sin(2*pi*q) + 0.41421356237309515*y2")
    code, data = run_json(tmp_path, capsys,
                          text + "\ncheck invariance shear FN\n",
                          "--steps", "64")
    assert code == 1    # this speed twists FN: the record fails
    assert [(c["name"], c["mode"]) for c in data["checks"]] == [
        ("invariance(shear, FN)", "SAMPLED")]
    assert data["checks"][0]["residuals"]["symplectic"] < 1e-10
    assert rk4_steps == list(range(1, 65))


def test_translation_gate_is_exact_at_any_tol(tmp_path, capsys):
    """After a translation flow, invariance and the transport gate are
    decided at exact_zero: a 1e-6 x1 wave that the shear moves fails them
    at --tol 1e-3, where a sampled verdict would pass."""
    text = (bundled_scene_dir() / "lambda_shear.scene").read_text(
        encoding="utf-8").split("\ncheck ")[0].replace(
        "form FN @ N = dx1^dx2 - dy1^dy2",
        "form FN @ N = dx1^dx2 - dy1^dy2 + 1e-6*cos(2*pi*x1)*dx1^dx2")
    code, data = run_json(tmp_path, capsys, text
                          + "\ncheck invariance shear FN\n"
                          "check transport_kernel shear FN\n",
                          "--steps", "64", "--tol", "1e-3")
    assert code == 1
    inv, kernel = data["checks"]
    assert inv["mode"] == "EXACT" and not inv["pass"]
    assert 1e-6 < inv["residuals"]["invariance"] < 1e-3
    assert kernel["mode"] == "ERROR"
    assert kernel["details"]["error"].startswith("BraneObstruction: ")


@pytest.mark.parametrize("name", ["lambda_shear", "mapping_torus"])
def test_translation_flows_take_no_rk4_step(capsys, rk4_steps, name):
    """Every flow of these scenes is a translation, taken in closed form."""
    assert main(["run", name, "--steps", "64", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]
    assert rk4_steps == []


def test_uncancelled_circle_terms_are_a_named_error(capsys, monkeypatch):
    monkeypatch.setattr(branelab.infdef, "q_antiderivative",
                        lambda a, i: a * parse_field("q", a.model))
    assert main(["run", "infdef_torus", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    rec = next(c for c in data["checks"]
               if c["name"] == "build_infdef(rho_ok, B0N, c)")
    assert not rec["pass"] and rec["mode"] == "ERROR"
    assert rec["details"]["error"].startswith("CircleTermsError: ")


def test_raised_check_shows_its_error_in_text_and_csv(capsys, monkeypatch):
    monkeypatch.setattr(branelab.infdef, "q_antiderivative",
                        lambda a, i: a * parse_field("q", a.model))
    name = "build_infdef(rho_ok, B0N, c)"
    assert main(["run", "infdef_torus", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, ln in enumerate(lines) if name in ln)
    assert lines[at].startswith(f"  [FAIL] {name} (ERROR, residual")
    assert lines[at + 1].startswith("         error: CircleTermsError: ")
    assert main(["run", "infdef_torus", "--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out.strip())))
    assert rows[0] == ["check", "mode", "pass", "max_residual", "conditions",
                       "error"]
    row = next(r for r in rows if r[0] == name)
    assert row[1:3] == ["ERROR", "False"]
    assert row[-1].startswith("CircleTermsError: ")


def test_expected_obstruction_is_no_error_line(tmp_path, capsys):
    name = "build_infdef(rho_bad, B0N, c)"
    main(["run", "infdef_torus", "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, ln in enumerate(lines) if name in ln)
    assert lines[at].startswith(f"  [pass] {name} (EXACT, residual")
    assert not lines[at + 1].lstrip().startswith("error:")
    main(["run", "infdef_torus", "--format", "json"])
    rec = next(c for c in json.loads(capsys.readouterr().out)["checks"]
               if c["name"] == name)
    assert "error" not in rec["details"]
    assert rec["details"]["obstruction"].startswith(
        "circle average of the slice 1-form is not closed")
    # an obstruction nobody expected is the failure reason
    text = (bundled_scene_dir() / "infdef_torus.scene").read_text()
    _, data = run_json(tmp_path, capsys, text.replace(
        "rho_bad B0N c expect=obstruction", "rho_bad B0N c"))
    rec = next(c for c in data["checks"] if c["name"] == name)
    assert not rec["pass"]
    assert rec["details"]["error"].startswith(
        "circle average of the slice 1-form is not closed")
    assert "obstruction" not in rec["details"]


@pytest.mark.parametrize("flags,option", [
    (["--steps", "0"], ""), (["--steps", "-3"], ""), ([], "option steps 0\n")])
def test_steps_below_one_is_a_usage_error(tmp_path, capsys, flags, option):
    p = tmp_path / "case.scene"
    p.write_text(MINIMAL.replace("\nmodel M", f"\n{option}model M"))
    assert main(["run", str(p), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: steps must be at least 1")
    assert captured.out == ""


@pytest.mark.parametrize("flags,message", [
    (["--tol", "nan"], "tol must be a finite float >= 0, not nan"),
    (["--tol", "-1"], "tol must be a finite float >= 0, not -1.0"),
    (["--seed", "-1"], "seed must be at least 0, not -1")])
def test_bad_run_setting_is_a_usage_error(tmp_path, capsys, flags, message):
    p = tmp_path / "case.scene"
    p.write_text(MINIMAL)
    assert main(["run", str(p), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags,message", [
    (["--pair", "nosuch"], "unresolved pair reference 'nosuch'"),
    (["--candidate", "nosuch", "--truncation", "0"],
     "unresolved candidate reference 'nosuch'"),
    (["--candidate", "nosuch"], "unresolved candidate reference 'nosuch'"),
    (["--candidate", "c"], "--candidate needs --truncation"),
    (["--truncation", "-1"], "truncation must be an int >= 0, not -1")])
def test_infdef_subcommand_rejects_an_undeclared_name(capsys, flags, message):
    assert main(["infdef", "infdef_torus", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# infdef_torus with an omega whose coefficients vary: every infdef check
# on it raises
VARYING_OMEGA = (bundled_scene_dir() / "infdef_torus.scene").read_text(
    encoding="utf-8").replace("form omega @ Y = dx1^dy2",
                              "form omega @ Y = cos(2*pi*x1)*dx1^dy2")


def test_infdef_subcommand_reports_raised_checks_as_records(tmp_path, capsys):
    p = tmp_path / "case.scene"
    p.write_text(VARYING_OMEGA)
    assert main(["infdef", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["all_passed"] is False
    for entry in data["pairs"].values():
        for rec in (entry["check_infdef"], entry["general"]):
            assert rec["mode"] == "ERROR" and rec["pass"] is False
            assert rec["details"]["error"] == (
                "ValueError: transverse endomorphism needs constant forms")


def test_infdef_subcommand_reports_a_raised_complex(capsys):
    assert main(["infdef", "example_r4", "--truncation", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["complex_slice"] == {
        "candidate": "c", "truncation": 1,
        "error": "ValueError: truncated Fourier bases need a torus model"}


def test_expected_failure_does_not_pass_a_raised_check(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, VARYING_OMEGA)
    assert code == 1
    rec = next(c for c in data["checks"] if c["name"] == "infdef(pbad, c)")
    assert rec["mode"] == "ERROR" and rec["details"]["expected"] == "fail"
    assert rec["pass"] is False


def test_infdef_subcommand_takes_no_flow_settings(capsys):
    for flag in ("--steps", "--q-grid"):
        with pytest.raises(SystemExit) as exc:
            main(["infdef", "infdef_torus", flag, "8"])
        assert exc.value.code == 2
    capsys.readouterr()
    # the scene's own options still go through the run settings
    scene = resolve_scene("infdef_torus")
    scene.options["steps"] = "0"
    with pytest.raises(ValueError):
        branelab.cli._config_from(
            scene, branelab.cli.make_parser().parse_args(
                ["infdef", "infdef_torus"]))


def test_hold_records_the_residual_and_passes_at_the_bound():
    rec = CheckResult("demo", EXACT, False)
    assert rec.hold("closed", 1e-10, 1e-10)
    assert not rec.hold("small", 2.0, 1.0, residual="size")
    assert rec.conditions == {"closed": True, "small": False}
    assert rec.residuals == {"closed": 1e-10, "size": 2.0}


# E = d_x1 repeats a G direction, yet omega is nondegenerate on G, so
# every check below gets as far as inverting the joint frame [G | E]
DEPENDENT_FRAMES = """\
scene dependent_frames
describe a constant kernel frame that repeats a transverse direction

model Y
coord Y x1 circle
coord Y y1 circle
coord Y x2 circle
coord Y y2 circle
coord Y q circle

form omega @ Y = dx1^dy2 + dy1^dx2
form F @ Y = dx1^dx2 - dy1^dy2
form r0 @ Y = 0@1
form B11 @ Y = dx1^dy1
field fgen @ Y = cos(2*pi*q)
frame E @ Y = d_x1
frame G @ Y = d_x1 ; d_y1 ; d_x2 ; d_y2
candidate c = Y omega F E G
pair p = c r0 B11

"""


@pytest.mark.parametrize("check", [
    "brane c", "brane_via_J c", "infdef p c", "infdef_general p c",
    "hamiltonian_cocycle fgen c"])
def test_dependent_joint_frame_is_a_rank_drop_error(tmp_path, capsys, check):
    code, data = run_json(tmp_path, capsys,
                          DEPENDENT_FRAMES + f"check {check}\n")
    rec = data["checks"][0]
    assert code == 1 and rec["mode"] == "ERROR" and not rec["pass"]
    assert rec["details"]["error"] == (
        "RankDropError: E and G frames are dependent: the joint frame "
        "[G | E] is singular")


def test_dependent_sampled_frame_names_the_sample(tmp_path, capsys):
    text = DEPENDENT_FRAMES.replace(
        "frame G @ Y = d_x1 ;", "frame G @ Y = cos(2*pi*q)*d_x1 ;")
    code, data = run_json(tmp_path, capsys, text + "check brane c\n")
    rec = data["checks"][0]
    assert code == 1 and rec["mode"] == "ERROR"
    assert rec["details"]["error"].startswith(
        "RankDropError: E and G frames are dependent: the joint frame "
        "[G | E] is singular at sample [")


# a base form whose condition number (1e9) is past the gate, and a
# singular one; every check of the deformation must name the degeneracy
DEGENERATE_BASE = """\
scene degenerate_base
describe a graph deformation over a degenerate base form

model N
coord N x1 circle
coord N y1 line
coord N x2 line
coord N y2 line

form omegaN @ N = {omega}
form FN @ N = dx1^dx2 - dy1^dy2
deform g = N omegaN FN q : 0.5*y2

check invariance g FN
check transport_kernel g FN
check mapping_torus g FN
check closed1f g
"""


@pytest.mark.parametrize("omega", ["dx1^dy2 + 1e-9*dy1^dx2", "dx1^dy2"])
def test_degenerate_base_form_is_a_degenerate_form_error(tmp_path, capsys,
                                                         omega):
    code, data = run_json(tmp_path, capsys,
                          DEGENERATE_BASE.format(omega=omega))
    assert code == 1 and len(data["checks"]) == 4
    for rec in data["checks"]:
        assert rec["mode"] == "ERROR" and not rec["pass"]
        assert rec["details"]["error"].startswith(
            "DegenerateFormError: form degenerate at constant form: ")


def test_overflowing_coefficient_is_a_scene_error():
    with pytest.raises(SceneError, match="line 11: coefficient inf is not finite"):
        parse_scene(MINIMAL.replace("form F @ M = dx1^dx2 - dy1^dy2",
                                    "form F @ M = 1e200*1e200*dx1^dx2"))


# the infdef_torus declarations, with a graph deformation added; each check
# line below is line 34 of its scene
DECLARATIONS = (bundled_scene_dir() / "infdef_torus.scene").read_text(
    encoding="utf-8").split("\ncheck ")[0].replace(
    "\nfield fgen", "\nform omegaN @ N = dx1^dy2 + dy1^dx2\n"
    "form FN @ N = dx1^dx2 - dy1^dy2\n"
    "deform shear = N omegaN FN q : 0.5*y2\nfield fgen")


@pytest.mark.parametrize("check,message", [
    ("brane", "expected: check brane <candidate>"),
    ("brane c c", "expected: check brane <candidate>"),
    ("brane pgood", "unresolved candidate reference 'pgood'"),
    ("cohomology c trunc=2 h1=5", "cohomology takes no option 'trunc'"),
    ("brane c tol=1e-30", "brane takes no option 'tol'"),
    ("infdef pgood c expect=maybe",
     "infdef option expect takes pass|fail, not 'maybe'"),
    ("build_infdef rho_ok B0N c expect=maybe",
     "build_infdef option expect takes pass|fail|obstruction, not 'maybe'"),
    ("transport_fd shear FN tol=small",
     "transport_fd option tol takes finite float >= 0, not 'small'"),
    ("transport_fd shear FN tol=nan",
     "transport_fd option tol takes finite float >= 0, not 'nan'"),
    ("mapping_torus shear FN tol=-1",
     "mapping_torus option tol takes finite float >= 0, not '-1'"),
    ("cohomology c truncation=1 truncation=2",
     "option 'truncation' given twice"),
    ("cohomology c truncation=-1",
     "cohomology option truncation takes int >= 0, not '-1'"),
    ("", "empty check"),
])
def test_malformed_check_line_is_a_usage_error(tmp_path, capsys, check,
                                               message):
    p = tmp_path / "case.scene"
    p.write_text(DECLARATIONS + f"\ncheck {check}\n")
    assert main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 34: {message}\n"
    assert captured.out == ""


# E spans the whole of Y and G is empty: the transverse rank is 0, a
# multiple of 4, and every restriction to G is a 0x0 matrix
EMPTY_G_FRAME = """\
scene empty_g
describe a kernel frame that spans Y and an empty transverse frame

model Y
coord Y x1 circle
coord Y y1 circle
coord Y x2 circle
coord Y y2 circle

form omega @ Y = 0@2
form F @ Y = 0@2
form r0 @ Y = 0@1
form B0 @ Y = 0@2
frame E @ Y = d_x1 ; d_y1 ; d_x2 ; d_y2
frame G @ Y =
candidate c = Y omega F E G
pair p = c r0 B0

check brane c
check brane_via_J c
check infdef p c
check infdef_general p c
check cohomology c truncation=0
"""


def test_empty_transverse_frame_gives_records(tmp_path, capsys):
    for truncation in (0, 1):
        code, data = run_json(tmp_path, capsys, EMPTY_G_FRAME.replace(
            "truncation=0", f"truncation={truncation}"))
        assert code == 1
        assert [(c["name"], c["pass"]) for c in data["checks"]] == [
            ("brane(c)", True), ("brane_via_J(c)", True),
            ("infdef(p, c)", True), ("infdef_general(p, c)", True),
            (f"cohomology(c, truncation={truncation})", False)]
        rec = data["checks"][-1]
        assert rec["mode"] == "ERROR" and rec["details"]["error"] == (
            "ValueError: expected the kernel frame d/dq on the product model")
