"""Brane verification: direct checker, product ambient, graph-pair oracle."""

import re

import numpy as np
import pytest

import branelab.model
from branelab.brane import (BraneCandidate, RankDropError, ambient_for,
                            check_brane, check_brane_via_J,
                            check_space_filling, local_normal_form,
                            tau_F_subspace)
from branelab.cli import bundled_scene_dir
from branelab.fields import VectorField
from branelab.forms import (DifferentialForm, Distribution, ext_d,
                            kernel_basis, max_principal_angle)
from branelab.grammar import parse_form, parse_vector
from branelab.infdef import complex_slice
from branelab.model import (CIRCLE, DEFAULT_PLAN, DEFAULT_TOL, LINE,
                            SamplePlan, extend_with_circle, model_from_names)
from branelab.scene import parse_scene

PLAN = SamplePlan(count=64, seed=0)

R4 = model_from_names([("x1", LINE), ("y1", LINE), ("x2", LINE), ("y2", LINE)])
OMEGA4 = parse_form("dx1^dy2 + dy1^dx2", R4)
F4 = parse_form("dx1^dx2 - dy1^dy2", R4)

T4 = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2")])
Y5 = extend_with_circle(T4, "q")
OMEGA5 = parse_form("dx1^dy2 + dy1^dx2", Y5)
F5 = parse_form("dx1^dx2 - dy1^dy2", Y5)
E5 = Distribution(Y5, (parse_vector("d_q", Y5),))
G5 = Distribution(Y5, tuple(
    parse_vector(f"d_{n}", Y5) for n in ("x1", "y1", "x2", "y2")))


def codim1_candidate(F):
    return BraneCandidate(Y5, OMEGA5, F, E5, G5)


def space_filling_candidate():
    E = Distribution(R4, ())
    G = Distribution(R4, tuple(VectorField.basis(R4, i) for i in range(4)))
    return BraneCandidate(R4, OMEGA4, F4, E, G)


def test_space_filling_standard_pair_exact():
    rec = check_space_filling(OMEGA4, F4)
    assert rec.passed and rec.mode == "EXACT"
    expect = np.array([[0.0, -1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, -1.0],
                       [0.0, 0.0, 1.0, 0.0]])
    assert np.allclose(np.array(rec.details["I_matrix"]), expect, atol=0)


def test_space_filling_detects_wrong_square():
    rec = check_space_filling(OMEGA4, F4 * 2.0)
    assert not rec.passed
    assert not rec.conditions["I_squares_minus_id"]
    # (omega^-1 2F)^2 = -4 Id, named at the first plan point
    assert [w["label"] for w in rec.witnesses] == ["I_square"]
    assert rec.witnesses[0]["residual"] == pytest.approx(3.0, abs=1e-12)


def test_space_filling_degenerate_constant_omega_has_witness():
    degenerate = DifferentialForm.build(R4, 2, {(0, 1): 1.0})
    rec = check_space_filling(degenerate, F4)
    assert rec.mode == "EXACT" and not rec.passed
    assert not rec.conditions["nondegenerate"]
    assert rec.details["omega_condition"] == float("inf")
    assert "I_matrix" not in rec.details
    assert "I_squared_plus_id" not in rec.residuals
    assert [w["label"] for w in rec.witnesses] == ["degenerate_omega"]
    assert rec.witnesses[0]["point"] == DEFAULT_PLAN.points(R4)[0].tolist()


def test_space_filling_detects_nonclosed():
    F_bad = F4 + parse_form("x1*dx2^dy2", R4)
    assert not ext_d(F_bad).is_zero()
    rec = check_space_filling(OMEGA4, F_bad)
    assert not rec.passed and not rec.conditions["closed_F"]


def test_space_filling_sampled_mode_on_nonconstant_data():
    scale = parse_form("0@2", Y5) + OMEGA5
    F_var = F5 * 1.0
    rec = check_space_filling(scale, F_var, plan=PLAN)
    # constant forms stay exact; force sampled mode with a q-dependent F
    F_q = F5 + parse_form("cos(2*pi*q)*dx1^dy1", Y5)
    rec2 = check_space_filling(OMEGA5, F_q, plan=PLAN)
    assert rec.mode == "EXACT"
    assert rec2.mode == "SAMPLED" and not rec2.passed


def test_candidate_rank_bookkeeping_enforced():
    with pytest.raises(ValueError):
        BraneCandidate(Y5, OMEGA5, F5, E5, Distribution(Y5, ()))
    bad_G = Distribution(Y5, tuple(
        parse_vector(f"d_{n}", Y5) for n in ("x1", "y1", "x2")))
    with pytest.raises(ValueError):
        BraneCandidate(Y5, OMEGA5, F5, Distribution(Y5, (
            parse_vector("d_q", Y5), parse_vector("d_y2", Y5))), bad_G)


def test_check_brane_main_example():
    rec = check_brane(codim1_candidate(F5), PLAN)
    assert rec.passed
    assert rec.conditions["kernels_equal"]
    assert rec.conditions["transverse_I_squares"]


def test_check_brane_flags_kernel_mismatch():
    rec = check_brane(codim1_candidate(F5 + parse_form("dx1^dq", Y5)), PLAN)
    assert not rec.passed


def test_check_brane_flags_nonclosed():
    F_bad = F5 + parse_form("cos(2*pi*q)*dx1^dy1", Y5)
    rec = check_brane(codim1_candidate(F_bad), PLAN)
    assert not rec.passed


def test_local_normal_forms_pass_both_checkers():
    for n, k in [(1, 0), (1, 2), (2, 0), (2, 1)]:
        c = local_normal_form(n, k)
        assert check_brane(c, PLAN).passed
        assert check_brane_via_J(c, plan=PLAN).passed


def test_normal_form_requires_positive_n():
    with pytest.raises(ValueError):
        local_normal_form(0, 1)


def test_ambient_reduces_to_suspension_form():
    """For the codimension-one product the ambient form is omega_N + dq^dt."""
    amb = ambient_for(codim1_candidate(F5))
    assert amb.model_M.dim == 6
    W = amb.omega_M.constant_gram()
    expect = np.zeros((6, 6))
    expect[0, 3] = 1.0; expect[3, 0] = -1.0
    expect[1, 2] = 1.0; expect[2, 1] = -1.0
    expect[4, 5] = 1.0; expect[5, 4] = -1.0   # dq ^ dt
    assert np.allclose(W, expect, atol=1e-12)


def test_ambient_avoids_coordinate_name_collisions():
    c = local_normal_form(1, 1)  # already owns a coordinate named t1
    amb = ambient_for(c)
    names = [n for n, _ in amb.model_M.coords]
    assert len(names) == len(set(names))


def test_tau_F_subspace_is_lagrangian_for_split_pairing():
    c = codim1_candidate(F5)
    amb = ambient_for(c)
    p = np.zeros(6)
    basis = tau_F_subspace(c, amb, p)
    assert basis.shape == (12, 6)
    # <(X, xi), (Z, eta)> = (xi(Z) + eta(X)) / 2 on the columns
    X, Xi = basis[:6], basis[6:]
    G = 0.5 * (Xi.T @ X + X.T @ Xi)
    assert np.abs(G).max() < 1e-12


def test_via_J_detects_broken_candidates():
    broken = [
        codim1_candidate(OMEGA5),
        codim1_candidate(F5 * 2.0),
        codim1_candidate(F5 + parse_form("0.3*dx1^dy2", Y5)),
    ]
    for c in broken:
        assert not check_brane_via_J(c, plan=PLAN).passed


def test_lagrangian_candidate_passes_both_checkers():
    r2 = model_from_names([("u", LINE), ("v", LINE)])
    lag = BraneCandidate(
        r2, DifferentialForm.zero(r2, 2), DifferentialForm.zero(r2, 2),
        Distribution(r2, (VectorField.basis(r2, 0), VectorField.basis(r2, 1))),
        Distribution(r2, ()))
    assert check_brane(lag, PLAN).passed
    assert check_brane_via_J(lag, plan=PLAN).passed


def sampled_reference(c, plan=DEFAULT_PLAN, tol=DEFAULT_TOL):
    """(conditions, residuals) of check_brane and of check_brane_via_J from
    the per-sample loop: every plan point evaluated on its own."""
    pts = plan.points(c.model_Y)
    WG, FG = c.omega.gram_batch(pts), c.F.gram_batch(pts)
    amb = ambient_for(c)
    m, n = amb.model_M.dim, amb.n_base
    k = c.E_frame.rank
    kernel = square = J_res = 0.0
    for i, p in enumerate(pts):
        E = c.E_frame.matrix_at(p)
        for G in (WG[i], FG[i]):
            nul = kernel_basis(G)
            assert nul.shape[1] == k
            kernel = max(kernel, max_principal_angle(nul, E) if k else 0.0)
        Gm = c.G_frame.matrix_at(p)
        I = np.linalg.solve(Gm.T @ WG[i] @ Gm, Gm.T @ FG[i] @ Gm)
        square = max(square, np.abs(I @ I + np.eye(Gm.shape[1])).max())
        pM = np.zeros(m)
        pM[:n] = p
        W = amb.omega_M.gram_at(pM)
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = -np.linalg.inv(W.T)
        J[m:, :m] = W.T
        basis = tau_F_subspace(c, amb, pM)
        Q, _ = np.linalg.qr(basis)
        img = J @ basis
        r = np.linalg.norm(img - Q @ (Q.T @ img), axis=0).max() / max(
            np.linalg.norm(img, axis=0).max(), 1.0)
        J_res = max(J_res, float(r))
    d_omega, d_F = ext_d(c.omega), ext_d(c.F)
    closed = {"omega_closed": d_omega.is_zero(tol.exact_zero),
              "F_closed": d_F.is_zero(tol.exact_zero)}
    brane = ({**closed, "kernels_equal": kernel <= tol.subspace,
              "transverse_I_squares": square <= tol.sampled},
             {"d_omega": d_omega.max_coeff(), "d_F": d_F.max_coeff(),
              "kernel_angle": kernel, "transverse_square": square})
    via_J = ({**closed, "J_invariant": J_res <= tol.subspace},
             {"d_omega": d_omega.max_coeff(), "d_F": d_F.max_coeff(),
              "J_residual": J_res})
    return brane, via_J


def gl4z_candidate(rng):
    """The standard T^4 pair pulled back by a random GL(4,Z) matrix."""
    A = np.eye(4)[rng.permutation(4)] * rng.choice([-1.0, 1.0], size=4)
    for _ in range(3):
        i, j = rng.choice(4, size=2, replace=False)
        A[i] += rng.choice([-1.0, 1.0]) * A[j]

    def pullback(form):
        W = A.T @ form.constant_gram() @ A
        return DifferentialForm.build(T4, 2, {
            (i, j): W[i, j] for i in range(4) for j in range(i + 1, 4)
            if W[i, j]})

    return BraneCandidate(
        T4, pullback(parse_form("dx1^dy2 + dy1^dx2", T4)),
        pullback(parse_form("dx1^dx2 - dy1^dy2", T4)), Distribution(T4, ()),
        Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4))))


CONSTANT_CANDIDATES = (
    [gl4z_candidate(np.random.default_rng(seed)) for seed in range(6)]
    + [local_normal_form(1, 1), local_normal_form(2, 1),
       codim1_candidate(F5),
       codim1_candidate(F5 * 2.0),                          # fails the square
       codim1_candidate(F5 + parse_form("0.3*dx1^dy2", Y5)),
       codim1_candidate(F5 + parse_form("dx1^dq", Y5))])    # wrong kernel


@pytest.mark.parametrize("c", CONSTANT_CANDIDATES)
def test_constant_data_decided_by_one_evaluation(c):
    (b_conds, b_res), (j_conds, j_res) = sampled_reference(c)
    rec = check_brane(c)
    assert rec.mode == "EXACT"
    assert (rec.conditions, rec.residuals) == (b_conds, b_res)
    assert rec.passed == all(b_conds.values())
    first = DEFAULT_PLAN.points(c.model_Y)[0].tolist()
    assert all(w["point"] == first for w in rec.witnesses)
    assert len(rec.witnesses) == sum(not v for v in b_conds.values())
    rec = check_brane_via_J(c)
    assert rec.mode == "EXACT"
    assert (rec.conditions, rec.residuals) == (j_conds, j_res)
    assert rec.passed == all(j_conds.values())
    assert all(w["point"] == first for w in rec.witnesses)


def test_failing_constant_candidates_fail_both_checks():
    for c in CONSTANT_CANDIDATES[-3:]:
        assert not check_brane(c).passed
        assert not check_brane_via_J(c).passed


def test_q_dependent_candidate_stays_sampled():
    c = codim1_candidate(F5 + parse_form("0.1*cos(2*pi*q)*dx1^dy1", Y5))
    (b_conds, b_res), (j_conds, j_res) = sampled_reference(c, PLAN)
    rec = check_brane(c, PLAN)
    assert rec.mode == "SAMPLED"
    assert (rec.conditions, rec.residuals) == (b_conds, b_res)
    rec = check_brane_via_J(c, plan=PLAN)
    assert rec.mode == "SAMPLED"
    assert (rec.conditions, rec.residuals) == (j_conds, j_res)


def test_near_constant_data_is_sampled_not_exact():
    """A term far below every verdict tolerance, but above pruning, still
    makes F vary: the brane checks sample it and the complex refuses it."""
    text = (bundled_scene_dir() / "cohomology_t4.scene").read_text(
        encoding="utf-8")
    old = "form F @ T = dx1^dx2 - dy1^dy2"
    assert old in text
    c = parse_scene(text.replace(
        old, old + " + 5e-11*cos(2*pi*x1)*dx1^dy1")).lookup("candidates", "c")
    assert c.F.constant_gram() is None and c.constant_grams is None
    for rec in (check_space_filling(c.omega, c.F), check_brane(c),
                check_brane_via_J(c)):
        assert rec.mode == "SAMPLED" and rec.passed
    with pytest.raises(ValueError, match="needs constant omega and F"):
        complex_slice(c, 1)


def test_rank_drop_on_constant_data_names_the_first_plan_point():
    c = BraneCandidate(Y5, DifferentialForm.zero(Y5, 2), F5, E5, G5)
    first = DEFAULT_PLAN.points(Y5)[0].tolist()
    with pytest.raises(RankDropError, match=re.escape(str(first))):
        check_brane(c)


def test_exact_checks_that_name_no_point_draw_no_plan(monkeypatch):
    """A passing EXACT check draws the sample plan only to name a point,
    so never; a failing one draws it for its witness."""
    calls = []
    halton = branelab.model._halton

    def counted(*args):
        calls.append(args)
        return halton(*args)

    monkeypatch.setattr(branelab.model, "_halton", counted)
    cohomology = parse_scene((bundled_scene_dir() / "cohomology_t4.scene")
                             .read_text(encoding="utf-8"))
    rec = check_space_filling(cohomology.lookup("forms", "omega"),
                              cohomology.lookup("forms", "F"))
    assert rec.mode == "EXACT" and rec.passed
    for c in CONSTANT_CANDIDATES[:-3]:
        for rec in (check_brane(c), check_brane_via_J(c)):
            assert rec.mode == "EXACT" and rec.passed
        if c.E_frame.rank == 0:
            assert check_space_filling(c.omega, c.F).passed
    assert calls == []
    rec = check_brane(CONSTANT_CANDIDATES[-3])
    assert not rec.passed and rec.witnesses
    assert calls
