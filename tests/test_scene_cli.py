"""Scene DSL parsing, bundled catalog health, and CLI behavior."""

import copy
import csv
import dataclasses
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
from branelab.model import Tolerances
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


@pytest.mark.parametrize("name, flags, header", [
    ("example_r4", [],
     "branelab run example_r4 --seed 0 --steps 1024 --tol 1e-08"),
    ("lambda_shear", ["--seed", "5", "--steps", "200", "--tol", "1e-07"],
     "branelab run lambda_shear --seed 5 --steps 200 --tol 1e-07"),
    ("mapping_torus", ["--seed", "3", "--steps", "96", "--tol", "0.003"],
     "branelab run mapping_torus --seed 3 --steps 96 --tol 0.003")])
def test_the_text_header_is_the_command_that_reruns_it(capsys, name, flags,
                                                       header):
    main(["run", name, "--format", "text", *flags])
    text = capsys.readouterr().out
    assert text.splitlines()[0] == header
    main(["run", name, "--format", "json", *flags])
    want = scrub(json.loads(capsys.readouterr().out))
    main(header.split()[1:] + ["--format", "json"])
    assert scrub(json.loads(capsys.readouterr().out)) == want
    main(header.split()[1:] + ["--format", "text"])
    assert capsys.readouterr().out.splitlines()[1:] == \
        text.splitlines()[1:]


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


def test_allocation_failure_is_an_error_record(tmp_path, capsys,
                                               monkeypatch):
    def out_of_memory(c, truncation):
        raise MemoryError("cannot allocate d1")

    monkeypatch.setattr(branelab.scene, "complex_slice", out_of_memory)
    code, data = run_json(tmp_path, capsys, GL_PAIR
                          + "check cohomology c truncation=1\n"
                          "check cohomology c truncation=0\n")
    assert code == 1
    first, second = data["checks"]
    assert first["mode"] == second["mode"] == "ERROR"
    assert first["details"]["error"] == "MemoryError: cannot allocate d1"
    assert second["name"] == "cohomology(c, truncation=0)"


def test_cohomology_check_fails_a_sign_flipped_d1(tmp_path, capsys,
                                                  monkeypatch):
    def flipped(c, truncation):
        cs = branelab.infdef.complex_slice(c, truncation)
        # the block row of d0 with the largest sum, and the largest d1
        # entry of the block column it meets
        f, k = np.unravel_index(np.abs(cs.b0).sum(axis=2).argmax(),
                                cs.b0.shape[:2])
        i = np.abs(cs.b1[f, :, k]).argmax()
        cs.b1[f, i, k] = -cs.b1[f, i, k]
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
    assert not rec["pass"] and False in rec["conditions"].values()
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
    # an option line is refused where it stands, a flag on its own
    at = "line 4: " if option else ""
    assert captured.err.startswith(f"error: {at}steps must be at least 1")
    assert captured.out == ""


@pytest.mark.parametrize("line,message", [
    ("option steps abc", "steps must be an int, not 'abc'"),
    ("option steps 1.5", "steps must be an int, not '1.5'"),
    ("option seed -3", "seed must be at least 0, not -3"),
    ("option tol abc", "tol must be a finite float >= 0, not abc"),
    ("option tol -1", "tol must be a finite float >= 0, not -1")])
def test_malformed_option_value_is_a_scene_error_at_its_line(
        tmp_path, capsys, line, message):
    p = tmp_path / "case.scene"
    p.write_text(MINIMAL.replace("\nmodel M", f"\n{line}\nmodel M"))
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: line 4: {message}\n")


def test_an_option_given_twice_is_a_scene_error_at_its_second_line(
        tmp_path, capsys):
    text = (bundled_scene_dir() / "example_r4.scene").read_text(
        encoding="utf-8").replace(
            "\nmodel M", "\noption steps 8\noption steps 16\nmodel M")
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert str(err.value) == "line 5: option 'steps' given twice"
    p = tmp_path / "twice.scene"
    p.write_text(text)
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr() == (
        "", "error: line 5: option 'steps' given twice\n")


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
                "ValueError: needs constant omega and F")


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


# example_r4 with an omega that is not closed: d(0.5*y1*dx1^dx2) != 0
OPEN_OMEGA = (bundled_scene_dir() / "example_r4.scene").read_text(
    encoding="utf-8").replace("form omega @ M = dx1^dy2 + dy1^dx2",
                              "form omega @ M = dx1^dy2 + dy1^dx2"
                              " + 0.5*y1*dx1^dx2")


def test_brane_checks_fail_on_an_omega_that_is_not_closed(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, OPEN_OMEGA)
    assert code == 1
    assert [c["name"] for c in data["checks"]] == [
        "space_filling(omega, F)", "brane(c)", "brane_via_J(c)"]
    for rec, closed in zip(data["checks"],
                           ("closed_omega", "omega_closed", "omega_closed")):
        assert rec["mode"] == "SAMPLED" and not rec["pass"]
        assert rec["conditions"][closed] is False
    text = OPEN_OMEGA.replace(" F\n", " F expect=fail\n").replace(
        " c\n", " c expect=fail\n")
    assert text.count("expect=fail") == 3
    code, data = run_json(tmp_path, capsys, text)
    assert code == 0 and all(c["pass"] for c in data["checks"])


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
    rec = CheckResult("demo", EXACT)
    assert rec.hold("closed", 1e-10, 1e-10)
    assert not rec.hold("small", 2.0, 1.0, residual="size")
    assert rec.conditions == {"closed": True, "small": False}
    assert rec.residuals == {"closed": 1e-10, "size": 2.0}
    assert not rec.witnesses


def test_per_sample_hold_names_the_first_worst_sample():
    rec = CheckResult("demo", EXACT)
    pts = np.arange(8.0).reshape(4, 2)
    assert rec.hold("ok", np.array([0.5, 1.0, 1.0, 0.0]), 1.0, at=pts.__getitem__)
    assert not rec.hold("bad", np.array([0.5, 3.0, 1.0, 3.0]), 1.0,
                        residual="worst", at=pts.__getitem__, label="bad")
    assert rec.hold("none", np.zeros(0), 0.0, at=pts.__getitem__)
    assert rec.conditions == {"ok": True, "bad": False, "none": True}
    assert rec.residuals == {"ok": 1.0, "worst": 3.0, "none": 0.0}
    assert rec.witnesses == [
        {"point": [2.0, 3.0], "residual": 3.0, "label": "bad"}]


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
    ("mapping_torus shear FN tol=-1", "mapping_torus takes no option 'tol'"),
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


# the example_r4 pair with F doubled: constant data whose transverse
# endomorphism squares to -4 Id, a residual of 3.0 in every check
DOUBLED_F = (bundled_scene_dir() / "example_r4.scene").read_text(
    encoding="utf-8").replace("form F @ M = dx1^dx2 - dy1^dy2",
                              "form F @ M = 2*dx1^dx2 - 2*dy1^dy2")


def test_no_exact_verdict_reads_the_run_tolerance(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, DOUBLED_F, "--tol", "10")
    assert code == 1
    assert data["tolerances"]["sampled"] == 10.0
    assert [(c["name"], c["mode"], c["pass"]) for c in data["checks"]] == [
        ("space_filling(omega, F)", "EXACT", False),
        ("brane(c)", "EXACT", False), ("brane_via_J(c)", "EXACT", False)]
    brane = data["checks"][1]
    assert brane["residuals"]["transverse_square"] == 3.0
    assert not brane["conditions"]["transverse_I_squares"]
    assert [w["label"] for w in brane["witnesses"]] == ["transverse_square"]


@pytest.mark.parametrize("name", bundled_names())
def test_exact_records_are_the_same_at_any_tol(capsys, name):
    runs = []
    for flags in ([], ["--tol", "10"]):
        main(["run", name, "--format", "json", *flags])
        checks = json.loads(capsys.readouterr().out)["checks"]
        for rec in checks:
            del rec["wall_time"]
        runs.append(checks)
    default, loose = runs
    assert len(default) == len(loose)
    for a, b in zip(default, loose):
        if EXACT in (a["mode"], b["mode"]):
            assert a == b


def test_run_settings_the_benchmark_reads(capsys):
    scene = resolve_scene("example_r4")
    cfg = branelab.cli._config_from(
        scene, branelab.cli.make_parser().parse_args(["run", "example_r4"]))
    tol = cfg.tol
    assert (tol.exact_zero, tol.sampled, tol.subspace, tol.svd_rank_rel) == (
        1e-10, 1e-8, 1e-8, 1e-8)
    assert cfg.grid == 64
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["sampled"]
    for command, gone in ((["run"], ["--q-grid"]),
                          (["infdef"], ["--seed", "--tol"])):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert usage and not [flag for flag in gone if flag in usage]


OPTIONS = MINIMAL.replace("\nmodel M",
                          "\noption seed 3\noption steps 64\nmodel M")


def test_option_lines_round_trip_to_the_run_settings():
    scene = parse_scene(OPTIONS)
    assert scene.options == {"seed": "3", "steps": "64"}
    text = serialize_scene(scene)
    assert "option seed 3\noption steps 64\n" in text
    again = parse_scene(text)
    assert again.options == scene.options
    assert serialize_scene(again) == text
    cfg = branelab.cli._config_from(
        again, branelab.cli.make_parser().parse_args(["run", "tiny"]))
    assert (cfg.plan.seed, cfg.flow.step) == (3, 1.0 / 64)


@pytest.mark.parametrize("line", ["option stpes 8", "option q_grid 32"])
def test_unknown_option_is_a_scene_error_at_its_line(line):
    with pytest.raises(SceneError) as err:
        parse_scene(MINIMAL.replace("\nmodel M", f"\n{line}\nmodel M"))
    key = line.split()[1]
    assert str(err.value) == (
        f"line 4: unknown option {key!r} (options: seed, steps, tol)")


@pytest.mark.parametrize("where", ["folder", "missing parent"])
def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys, where):
    out = tmp_path if where == "folder" else tmp_path / "nope" / "r.json"
    assert main(["run", "example_r4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: cannot write the report to {str(out)!r}: ")
    assert "Traceback" not in captured.err


def test_an_unwritable_out_path_fails_before_any_check_runs(
        tmp_path, capsys, monkeypatch):
    calls = []
    real = branelab.cli._execute

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(branelab.cli, "_execute", counted)
    assert main(["run", "example_r4", "--out", str(tmp_path)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(
        f"error: cannot write the report to {str(tmp_path)!r}: ")
    # a writable path still gets the whole report, over what it held
    out = tmp_path / "r.json"
    out.write_text("old")
    assert main(["run", "example_r4", "--format", "json",
                 "--out", str(out)]) == 0
    assert len(calls) == 3
    assert len(json.loads(out.read_text())["checks"]) == 3


# 300 parenthesized sums, deeper than the readers' recursion allows
DEEP = "(" * 300 + "x1" + ")" * 300


@pytest.mark.parametrize("line", [f"field f @ M = {DEEP}",
                                  f"form B @ M = {DEEP}*dx1^dy1"],
                         ids=["field", "form"])
def test_deep_nesting_is_a_parse_error_at_its_line(tmp_path, capsys, line):
    p = tmp_path / "case.scene"
    p.write_text(MINIMAL.replace("\ncheck ", f"\n{line}\ncheck "))
    assert main(["run", str(p)]) == 2
    # the 65th "(", at offset 64 of the text, opens one sum too many
    assert capsys.readouterr() == ("", (
        "error: line 13: parentheses nested deeper than 64 "
        "(at offset 64)\n"))


# infdef_torus with a kernel frame a hair off d/dq: the builder and the
# complex need d/dq itself and must not round the frame to it
TILTED_E = (bundled_scene_dir() / "infdef_torus.scene").read_text(
    encoding="utf-8").split("\ncheck ")[0].replace(
        "frame E @ Y = d_q", "frame E @ Y = d_q + 0.000000001*d_x1")


def test_a_kernel_frame_off_d_q_is_an_error_record(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, TILTED_E
                          + "\ncheck build_infdef rho_ok B0N c"
                          + "\ncheck cohomology c truncation=0\n")
    assert code == 1
    for rec in data["checks"]:
        assert rec["mode"] == "ERROR" and not rec["pass"]
        assert rec["details"]["error"] == (
            "ValueError: expected the kernel frame d/dq on the product model")


def test_an_expected_obstruction_that_builds_fails(tmp_path, capsys):
    text = (bundled_scene_dir() / "infdef_torus.scene").read_text(
        encoding="utf-8").split("\ncheck ")[0]
    code, data = run_json(tmp_path, capsys, text
                          + "\ncheck build_infdef rho_ok B0N c "
                            "expect=obstruction\n")
    assert code == 1
    rec, = data["checks"]
    assert (rec["name"], rec["mode"], rec["pass"]) == (
        "build_infdef(rho_ok, B0N, c)", "EXACT", False)
    assert rec["conditions"]["raised_obstruction"] is False
    assert rec["details"]["error"] == (
        "expected an obstruction but the build succeeded")


# example_r4 with a varying F whose transverse square misses -Id at every
# sample of the default plan
FAILING_EVERYWHERE = (bundled_scene_dir() / "example_r4.scene").read_text(
    encoding="utf-8").replace("form F @ M = dx1^dx2 - dy1^dy2",
                              "form F @ M = 2*dx1^dx2 - dy1^dy2"
                              " + 0.1*x1*dx1^dx2")


def test_a_failed_bound_names_one_witness(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, FAILING_EVERYWHERE)
    assert code == 1
    labels = {"space_filling(omega, F)": ("I_squared_plus_id", "I_square"),
              "brane(c)": ("transverse_square", "transverse_square"),
              "brane_via_J(c)": ("J_residual", "J_invariance")}
    for rec in data["checks"]:
        assert rec["mode"] == "SAMPLED" and not rec["pass"]
        residual, label = labels[rec["name"]]
        witness, = rec["witnesses"]
        assert witness["label"] == label
        assert witness["residual"] == rec["residuals"][residual]


# the translation flow of 1e3*x2 shifts y1 by 1e3, and y1^200 by 1e600
OVERFLOWING_SHIFT = """\
scene overflowing_shift
describe a transverse form whose translated coefficients overflow

model N
coord N x1 circle
coord N y1 line
coord N x2 line
coord N y2 line

form omegaN @ N = dx1^dy2 + dy1^dx2
form FN @ N = dx1^dx2 - dy1^dy2 + y1^200*dx1^dy1
deform g = N omegaN FN q : 1e3*x2

check invariance g FN
"""


def test_an_overflowing_translation_is_an_error_record(tmp_path, capsys):
    code, data = run_json(tmp_path, capsys, OVERFLOWING_SHIFT)
    assert code == 1
    rec, = data["checks"]
    assert rec["mode"] == "ERROR"
    assert rec["details"]["error"].startswith(
        "NonFiniteCoefficientError: coefficient inf is not finite")


def test_brane_via_J_builds_no_coupling_for_an_empty_kernel(tmp_path, capsys):
    """With E empty the ambient model is Y itself: a varying G-frame is
    decided like check_brane decides it, and a dependent one is still a
    rank drop."""
    r4 = (bundled_scene_dir() / "example_r4.scene").read_text(
        encoding="utf-8")
    varying = r4.replace("frame G @ M = d_x1 ;",
                         "frame G @ M = d_x1 + 0.1*y1*d_y1 ;")
    code, data = run_json(tmp_path, capsys, varying)
    assert code == 0
    assert [(c["name"], c["mode"]) for c in data["checks"]] == [
        ("space_filling(omega, F)", "EXACT"), ("brane(c)", "SAMPLED"),
        ("brane_via_J(c)", "EXACT")]
    dependent = r4.replace("frame G @ M = d_x1 ; d_y1 ;",
                           "frame G @ M = d_x1 ; d_x1 ;")
    code, data = run_json(tmp_path, capsys, dependent)
    assert code == 1
    for rec in data["checks"][1:]:
        assert rec["mode"] == "ERROR" and rec["details"]["error"] == (
            "RankDropError: E and G frames are dependent: the joint frame "
            "[G | E] is singular")
