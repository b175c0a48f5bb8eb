"""Scene DSL parsing, bundled catalog health, and CLI behavior."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import branelab.cli
import branelab.infdef
from branelab.cli import (bundled_scene_dir, main, resolve_scene)
from branelab.grammar import parse_field
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


def test_parallel_run_matches_serial(tmp_path):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    assert main(["run", "frame_11", "--out", str(a)]) == 0
    assert main(["run", "frame_11", "--parallel", "--out", str(b)]) == 0
    assert scrub(json.loads(a.read_text())) == scrub(json.loads(b.read_text()))


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
        "d0": {"blocks": 624, "largest": [4, 1]},
        "d1": {"blocks": 648, "largest": [4, 4]}}


def test_cohomology_check_fails_a_sign_flipped_d1(tmp_path, capsys,
                                                  monkeypatch):
    def flipped(c, truncation):
        cs = branelab.infdef.complex_slice(c, truncation)
        k = np.abs(cs.d0).sum(axis=1).argmax()
        i = np.abs(cs.d1[:, k]).argmax()
        cs.d1[i, k] = -cs.d1[i, k]
        return cs

    monkeypatch.setattr(branelab.cli, "complex_slice", flipped)
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
    assert not blown["pass"]
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


def test_uncancelled_circle_terms_are_a_named_error(capsys, monkeypatch):
    monkeypatch.setattr(branelab.infdef, "q_antiderivative",
                        lambda a, i: a * parse_field("q", a.model))
    assert main(["run", "infdef_torus", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    rec = next(c for c in data["checks"]
               if c["name"] == "build_infdef(rho_ok, B0N, c)")
    assert not rec["pass"]
    assert rec["details"]["error"].startswith("CircleTermsError: ")
