"""Random scenes from the text grammar never crash the batch runner."""

from hypothesis import HealthCheck, given, settings, strategies as st

from branelab.cli import RunConfig, run_scene
from branelab.model import DEFAULT_FLOW, DEFAULT_TOL, SamplePlan
from branelab.report import ERROR, EXACT, SAMPLED
from branelab.scene import SceneError, parse_scene

BASE = ("x1", "y1", "x2", "y2")

# the checks that decide by coefficient arithmetic or on constant data;
# no flows and no complex assembly
CHECKS = (
    "space_filling omega F", "brane c", "brane_via_J c", "type11 B omega F",
    "closed1f g", "melanie F E G", "infdef p c", "infdef_general p c",
    "hamiltonian_cocycle f c", "upsilon_image r wN FN",
    "build_infdef f B0 c", "build_infdef f B0 c expect=obstruction")

# check lines that parse_scene must refuse: wrong arity, an argument from
# the wrong pool, an unknown option, an ill-typed option value
MALFORMED = (
    "brane", "brane c c", "brane p", "infdef c p", "type11 B omega",
    "space_filling omega E", "brane c tol=1e-30", "infdef p c expect=maybe",
    "cohomology c trunc=1", "cohomology c truncation=one",
    "closed1f g expect=obstruction", "transport_fd g FN tol=small")


@st.composite
def coefficients(draw, coords):
    """A constant (three times in four), or a constant times a cosine or
    sine of one or two circle coordinates."""
    c = draw(st.sampled_from(["1", "0.5", "2", "0.25"]))
    if draw(st.integers(0, 3)):
        return c
    names = draw(st.lists(st.sampled_from(coords), min_size=1, max_size=2,
                          unique=True))
    ks = [draw(st.integers(1, 2)) for _ in names]
    arg = " + ".join(n if k == 1 else f"{k}*{n}" for n, k in zip(names, ks))
    trig = draw(st.sampled_from(["cos", "sin"]))
    return f"{c}*{trig}(2*pi*({arg}))"


@st.composite
def sums(draw, coords, basis, max_terms=3):
    """A signed sum of coefficient * basis-symbol terms."""
    terms = draw(st.lists(st.tuples(st.sampled_from(["+", "-"]),
                                    coefficients(coords),
                                    st.sampled_from(basis)),
                          min_size=1, max_size=max_terms))
    return " ".join(f"{s} {c}*{b}" for s, c, b in terms)


def two_forms(coords):
    return [f"d{a}^d{b}" for i, a in enumerate(coords) for b in coords[i + 1:]]


@st.composite
def scenes(draw):
    on_y = draw(st.booleans())
    coords = BASE + ("q",) if on_y else BASE
    space = "Y" if on_y else "N"

    def form(cs):
        return draw(sums(cs, two_forms(cs)))

    def frame(names):
        # each frame vector leans on its own direction, sometimes on others
        return " ; ".join(draw(sums(
            coords, [f"d_{n}"] * 4 + [f"d_{m}" for m in coords], 2))
            for n in names)

    # kernel directions: the circle q when there is one, sometimes another
    # split, so some candidates are refused at parse time, and sometimes
    # every direction, which leaves G empty
    natural = ["q"] if on_y else []
    kernel = draw(st.sampled_from(
        [natural] * 5 + [[], ["x1"], ["x1", "y1"], list(coords)]))
    lines = [
        "scene random",
        "model N", *(f"coord N {n} circle" for n in BASE),
        "model Y", *(f"coord Y {n} circle" for n in BASE + ("q",)),
        f"form omega @ {space} = {form(coords)}",
        f"form F @ {space} = {form(coords)}",
        f"form B @ {space} = {form(coords)}",
        f"form r @ {space} = "
        f"{draw(sums(coords, ['d' + n for n in natural or coords], 2))}",
        f"form wN @ N = {form(BASE)}",
        f"form FN @ N = {form(BASE)}",
        f"form B0 @ N = {form(BASE)}",
        f"field f @ {space} = {draw(sums(coords, ['1'], 3))}",
        f"frame E @ {space} = {frame(kernel)}",
        f"frame G @ {space} = "
        f"{frame([n for n in coords if n not in kernel])}",
        f"candidate c = {space} omega F E G",
        "pair p = c r B",
        f"deform g = N wN FN q : {draw(sums(BASE + ('q',), ['1'], 2))}",
    ]
    checks = draw(st.lists(st.sampled_from(CHECKS * 3 + MALFORMED),
                           min_size=1, max_size=3))
    return "\n".join(lines + [f"check {c}" for c in checks]) + "\n"


CONFIG = RunConfig(plan=SamplePlan(), tol=DEFAULT_TOL,
                   flow=DEFAULT_FLOW)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenes())
def test_random_scene_runs_to_records(text):
    try:
        scene = parse_scene(text)
    except SceneError:
        return
    report = run_scene(scene, CONFIG)
    assert len(report.checks) == len(scene.checks)
    for rec in report.checks:
        assert rec.mode in (EXACT, SAMPLED, ERROR)
        # no check here expects failure, so none is inverted
        assert rec.to_record()["pass"] is (
            rec.mode != ERROR and all(rec.conditions.values()))
