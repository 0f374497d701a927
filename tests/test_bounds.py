import dataclasses
import inspect
import math

import numpy as np
import pytest

import numrad
import numrad.bounds as nb
from numrad.bounds import (
    BoundReport,
    ChainReport,
    FunctionPair,
    HypothesisFailed,
    IdentityCheckError,
    MatrixContext,
    NotPositiveError,
    catalog_list,
    default_tolerance,
    eval_bound_kit,
    eval_bound_lem1,
    eval_bound_t3,
    eval_bound_t3_printed,
    eval_chain_b0,
    eval_chain_cor,
    eval_chain_sq,
    eval_chain_t1,
    eval_chain_t2,
    eval_functional_chain,
    eval_lemma_norm_sum,
    eval_lemma_pos_diff,
    evaluate,
    identity_pair,
    parse_bound_id,
    power_sqrt_pair,
)
from numrad.ensembles import EnsembleSpec, generate
from numrad.linalg import DomainError, NotHermitianError, operator_norm
from numrad.radius import TWO_PI, RadiusConfig

from conftest import random_complex

J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

GOLDEN_MID = (3.0 - math.sqrt(5.0)) / 2.0  # corollary middle on J at r = 2

ALL_IDS = [e.bound_id for e in catalog_list()]


def _ctx(a):
    return MatrixContext(a, RadiusConfig())


class TestJordanClosedForms:
    """The 2x2 nilpotent block pins nearly every catalog entry exactly."""

    def test_b0(self):
        rep = eval_chain_b0(J)
        assert rep.terms == pytest.approx((0.5, 0.5, 1.0), abs=1e-9)
        assert not rep.violated

    def test_kit(self):
        rep = eval_bound_kit(J)
        assert rep.lhs == pytest.approx(0.5, abs=1e-9)
        assert rep.rhs == pytest.approx(0.5, abs=1e-9)
        assert not rep.violated

    def test_sq(self):
        rep = eval_chain_sq(J)
        assert rep.terms == pytest.approx((0.25, 0.25, 0.5), abs=1e-9)
        assert not rep.violated

    def test_lem1(self):
        for sign in (1, -1):
            rep = eval_bound_lem1(J, sign)
            assert rep.lhs == pytest.approx(0.5, abs=1e-9)
            assert rep.rhs == pytest.approx(0.5, abs=1e-9)
            assert not rep.violated
        with pytest.raises(ValueError):
            eval_bound_lem1(J, 0)

    def test_t1(self):
        rep = eval_chain_t1(J)
        assert rep.terms == pytest.approx((0.25, 0.25, 0.25), abs=1e-9)
        assert not rep.violated

    def test_t2(self):
        rep = eval_chain_t2(J)
        assert rep.terms == pytest.approx((0.25, 0.25, 0.25), abs=1e-9)
        assert not rep.violated

    def test_t3_equality(self):
        rep = eval_bound_t3(J)
        assert rep.lhs == pytest.approx(0.25, abs=1e-9)
        assert rep.rhs == pytest.approx(0.25, abs=1e-9)
        assert not rep.violated

    def test_t3_printed_violated(self):
        rep = eval_bound_t3_printed(J)
        assert rep.lhs == pytest.approx(0.25, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.violated
        assert rep.slack == pytest.approx(-0.25, abs=1e-9)

    def test_functional_chain(self):
        rep = eval_functional_chain(J, power_sqrt_pair(2))
        assert rep.terms[0] == pytest.approx(0.25, abs=1e-9)
        assert rep.terms[1] == pytest.approx(GOLDEN_MID, abs=1e-9)
        assert rep.terms[2] == pytest.approx(0.5, abs=1e-9)
        assert not rep.violated

    def test_corollary_chain(self):
        rep = eval_chain_cor(J, 2)
        assert rep.terms[1] == pytest.approx(GOLDEN_MID, abs=1e-9)
        assert not rep.violated


def test_report_invariant_holds_literally(rng):
    reports = []
    for bid in ALL_IDS:
        if bid in ("LEM-SUM", "LEM-POSDIFF"):
            continue
        reports.append(evaluate(bid, J))
    a = random_complex(rng, 4)
    ctx = _ctx(a)
    for bid in ("B0", "KIT", "T2", "T3", "T3-PRINTED", "COR"):
        reports.append(evaluate(bid, ctx))
    for rep in reports:
        links = rep.links if isinstance(rep, ChainReport) else (rep,)
        for link in links:
            assert link.violated == (link.lhs - link.rhs > link.tolerance_used)
            assert link.slack == link.rhs - link.lhs


def test_chain_structure(rng):
    a = random_complex(rng, 3)
    rep = eval_chain_t2(a)
    assert isinstance(rep, ChainReport)
    assert len(rep.terms) == 3
    assert len(rep.links) == 2
    assert [l.bound_id for l in rep.links] == ["T2[0]", "T2[1]"]
    assert rep.links[0].rhs == rep.terms[1]
    assert rep.links[1].lhs == rep.terms[1]


def test_t3_never_looser_than_printed(rng):
    # subtracting the full minimum instead of half of it can only shrink rhs
    for n in (2, 3, 5):
        a = random_complex(rng, n)
        ctx = _ctx(a)
        t3 = eval_bound_t3(ctx)
        printed = eval_bound_t3_printed(ctx)
        assert t3.rhs >= printed.rhs - 1e-12 * max(1.0, abs(t3.rhs))


def test_identity_pair_collapses_to_kit(rng):
    for n in (2, 4):
        a = random_complex(rng, n)
        ctx = _ctx(a)
        chain = eval_functional_chain(ctx, identity_pair())
        kit = eval_bound_kit(ctx)
        scale = max(1.0, kit.rhs)
        assert abs(chain.terms[1] - kit.rhs) < 1e-12 * scale
        assert abs(chain.terms[2] - kit.rhs) < 1e-12 * scale
        assert abs(chain.terms[0] - kit.lhs) < 1e-12 * scale


def test_cor_and_func_middles_agree(rng):
    for r in (2, 3, 4):
        for n in (2, 3, 5):
            a = random_complex(rng, n)
            ctx = _ctx(a)
            cor = eval_chain_cor(ctx, r)
            func = eval_functional_chain(ctx, power_sqrt_pair(r))
            assert cor.terms[1] == pytest.approx(func.terms[1], abs=1e-12 * max(1.0, cor.terms[1]))


def test_cor_rejects_a_functional_middle_that_disagrees(rng, monkeypatch):
    # COR assembles its middle term literally and must agree with FUNC's
    # memoized middle; one that is 1e-6 off, relative, is an identity failure
    ctx = _ctx(random_complex(rng, 3))
    func = ctx.functional_chain(2)
    skewed = dataclasses.replace(
        func, terms=(func.terms[0], func.terms[1] * (1 + 1e-6), func.terms[2])
    )
    monkeypatch.setattr(ctx, "functional_chain", lambda r: skewed)
    with pytest.raises(IdentityCheckError, match="disagrees with functional middle"):
        evaluate("COR", ctx)


def test_cor_names_an_overflowing_2s_plus_i():
    # |A|^2 + |A*|^2 = diag(2e308, 0) overflows, though each power is finite
    with pytest.raises(DomainError) as info:
        eval_chain_cor(np.diag([1e154, 0.0]))
    assert str(info.value) == (
        "2S + I, S = |A|^r+|A*|^r+|A|^{r/2}+|A*|^{r/2} is not finite in double "
        "precision (entries overflow)"
    )


def test_hermitian_collapse(rng):
    # for Hermitian A: w = ||A||, KIT and T3 are equalities, T1 middle is ||A||^2/2
    g = random_complex(rng, 5)
    h = 0.5 * (g + g.conj().T)
    ctx = _ctx(h)
    nrm = operator_norm(h)
    kit = eval_bound_kit(ctx)
    assert kit.rhs == pytest.approx(nrm, rel=1e-11)
    assert abs(kit.slack) < 1e-9 * nrm
    t3 = eval_bound_t3(ctx)
    assert abs(t3.slack) < 1e-9 * nrm ** 2
    t1 = eval_chain_t1(ctx)
    assert t1.terms[1] == pytest.approx(0.5 * nrm ** 2, rel=1e-11)
    t2 = eval_chain_t2(ctx)
    assert t2.terms[1] == pytest.approx(math.sqrt(2.0) / 2.0 * nrm ** 2, rel=1e-9)


def test_chains_monotone_on_random(rng):
    for n in (2, 3, 6):
        a = random_complex(rng, n)
        ctx = _ctx(a)
        for bid in ("B0", "SQ", "T1", "T2", "FUNC", "COR"):
            rep = evaluate(bid, ctx)
            assert not rep.violated, (bid, rep.terms)


def test_lemma_norm_sum():
    rep = eval_lemma_norm_sum(J, J)
    # ||2J|| = 2 against sqrt(||2 J*J|| + 2 w(J*J)) = sqrt(2 + 2) = 2
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-9)
    assert not rep.violated
    with pytest.raises(ValueError):
        eval_lemma_norm_sum(J, np.eye(3, dtype=complex))


def test_lemma_norm_sum_random(rng):
    for n in (2, 4, 6):
        a = random_complex(rng, n)
        b = random_complex(rng, n)
        assert not eval_lemma_norm_sum(a, b).violated


def test_lemma_pos_diff():
    p = np.diag([2.0, 1.0]).astype(complex)
    q = np.diag([1.0, 3.0]).astype(complex)
    rep = eval_lemma_pos_diff(p, q)
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert not rep.violated


def test_lemma_pos_diff_rejects_indefinite():
    with pytest.raises(NotPositiveError):
        eval_lemma_pos_diff(np.diag([-1.0, 1.0]).astype(complex), np.eye(2, dtype=complex))
    with pytest.raises(NotHermitianError):
        eval_lemma_pos_diff(J, np.eye(2, dtype=complex))


def test_lemma_pos_diff_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="operands must share a dimension"):
        eval_lemma_pos_diff(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_lemma_pos_diff_random_psd(rng):
    for n in (2, 3, 7):
        gp = random_complex(rng, n)
        gq = random_complex(rng, n)
        p = gp.conj().T @ gp
        q = gq.conj().T @ gq
        assert not eval_lemma_pos_diff(0.5 * (p + p.conj().T), 0.5 * (q + q.conj().T)).violated


def test_function_pair_validation():
    with pytest.raises(ValueError):
        FunctionPair(lambda x: x, lambda x: x ** 2, lambda x: x, name="bad-inverse")
    with pytest.raises(ValueError):
        power_sqrt_pair(1.5)


def test_function_pair_hypothesis_check():
    # g = x^2 is convex, so the concavity gate must fire when the pair is
    # built: no pair that fails it ever reaches an evaluation
    with pytest.raises(HypothesisFailed, match="midpoint-concave"):
        FunctionPair(
            f=lambda x: x,
            g=lambda x: x ** 2,
            g_inverse=lambda x: math.sqrt(x) if np.isscalar(x) else np.sqrt(x),
            name="convex-g",
        )


def _dip_then_huge(x):
    # f(x) = x, except a dip at 0.5 and a huge value at the grid's end
    return {0.5: 0.1, 4.0: 1e300}.get(float(x), x)


def _wavy_inverse(x):
    # the identity's inverse at integer and half-integer points, not monotone
    # between them
    return x + np.sin(TWO_PI * x)


@pytest.mark.parametrize(
    "f, g, g_inverse, gate",
    [
        (lambda x: -x, lambda x: x, lambda x: x, "g o f is not increasing"),
        (_dip_then_huge, lambda x: x, lambda x: x, "g o f is not increasing"),
        (np.sqrt, lambda x: x, lambda x: x, "g o f is not midpoint-convex"),
        (lambda x: -x * x, lambda x: -x, lambda x: -x, "g is not increasing"),
        (lambda x: x, lambda x: x, _wavy_inverse, "g_inverse is not increasing"),
    ],
    ids=["decreasing", "dip-beside-a-huge-value", "concave", "decreasing-g", "wavy-inverse"],
)
def test_each_hypothesis_gate_fires(f, g, g_inverse, gate):
    # every pair passes the inverse round trip, so the named gate alone
    # rejects it; the dip is judged against its own neighbours, not 1e-9
    # times the 1e300 at x = 4
    with pytest.raises(HypothesisFailed, match=gate):
        FunctionPair(f, g, g_inverse, name="bad")


def test_power_sqrt_pairs_pass_the_hypothesis_gate():
    for r in (2, 2.5, 3, 7, 20, 60):
        nb._check_pair_hypotheses(power_sqrt_pair(r))


def test_scalar_only_pair_matches_its_numpy_twin():
    # math functions reject arrays, so every spectral function of this pair
    # runs through the element-wise fallback
    scalar = FunctionPair(
        f=lambda x: math.pow(x, 2.0),
        g=lambda x: x + math.sqrt(x),
        g_inverse=lambda x: x + 0.5 - math.sqrt(x + 0.25),
        name="scalar",
    )
    for a in (J, generate(EnsembleSpec("ginibre", 5, 1, seed=0), 0)):
        got = eval_functional_chain(MatrixContext(a), scalar).terms
        want = eval_functional_chain(MatrixContext(a), power_sqrt_pair(2)).terms
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_parse_bound_id():
    assert parse_bound_id("T2") == ("T2", None)
    assert parse_bound_id("COR:3") == ("COR", 3.0)
    assert parse_bound_id("FUNC:2.5") == ("FUNC", 2.5)
    with pytest.raises(ValueError, match="valid ids"):
        parse_bound_id("NOPE")
    with pytest.raises(ValueError):
        parse_bound_id("T2:3")
    with pytest.raises(ValueError):
        parse_bound_id("COR:abc")
    with pytest.raises(ValueError):
        parse_bound_id("COR:1")


@pytest.mark.parametrize("entry", catalog_list(), ids=lambda e: e.bound_id)
def test_registry_drives_evaluate(entry):
    if entry.arity == 1:
        rep = evaluate(entry.bound_id, J)
        assert isinstance(rep, (BoundReport, ChainReport))
        assert rep.violated == entry.diagnostic
    else:
        assert entry.evaluator is None
        with pytest.raises(ValueError, match="needs two matrices"):
            evaluate(entry.bound_id, J)


def test_registry_flags():
    assert {e.bound_id for e in catalog_list() if e.diagnostic} == {"T3-PRINTED"}
    assert [e.bound_id for e in catalog_list() if e.takes_r] == ["FUNC", "COR"]


def test_evaluate_forwards_exponent(rng):
    ctx = _ctx(random_complex(rng, 3))
    for base in ("COR", "FUNC"):
        bare = evaluate(base, ctx, r=3.0)
        assert bare.terms == evaluate(f"{base}:3", ctx).terms
        assert bare.terms != evaluate(base, ctx).terms
        # a suffix overrides the keyword
        assert evaluate(f"{base}:2", ctx, r=3.0).terms == evaluate(base, ctx).terms


def test_t2_checks_the_cartesian_identity_on_matrices(rng):
    ctx = _ctx(random_complex(rng, 4))
    eval_chain_t2(ctx)
    bumped = ctx.c2b2.copy()
    bumped[0, 0] += 1e-6 * max(1.0, operator_norm(ctx.quad_product))
    ctx.__dict__["c2b2"] = bumped
    with pytest.raises(IdentityCheckError):
        eval_chain_t2(ctx)


@pytest.mark.parametrize("seed", [3, 8])
def test_cor_right_term_is_func_right_term(seed):
    # COR and FUNC share || |A|^r + |A*|^r || / 2, bit for bit
    ctx = _ctx(random_complex(np.random.default_rng(seed), 3))
    for r in (2.0, 3.0, 4.5):
        func = eval_functional_chain(ctx, power_sqrt_pair(r))
        assert eval_chain_cor(ctx, r).terms[2] == func.terms[2]


def test_evaluate_dispatch(rng):
    a = random_complex(rng, 3)
    ctx = _ctx(a)
    rep2 = evaluate("COR:2", ctx)
    rep3 = evaluate("COR:3", ctx)
    assert rep2.terms[1] != rep3.terms[1]
    with pytest.raises(ValueError):
        evaluate("LEM-SUM", a)
    with pytest.raises(ValueError):
        evaluate("LEM-POSDIFF", a)


def test_catalog_cased_aliases():
    # one registry-cased name is kept, as the same callable, not a copy
    assert nb.eval_bound_T3_printed is nb.eval_bound_t3_printed
    for name in (
        "eval_chain_B0", "eval_bound_KIT", "eval_chain_SQ", "eval_bound_LEM1",
        "eval_chain_T1", "eval_chain_T2", "eval_bound_T3", "eval_chain_COR",
    ):
        assert not hasattr(nb, name), name
        assert not hasattr(numrad, name), name


def test_catalog_is_complete():
    entries = catalog_list()
    assert len(entries) == 13
    assert ALL_IDS == [
        "B0", "KIT", "SQ", "LEM1+", "LEM1-", "T1", "LEM-SUM", "T2",
        "LEM-POSDIFF", "T3", "T3-PRINTED", "FUNC", "COR",
    ]
    arity = {e.bound_id: e.arity for e in entries}
    assert arity["LEM-SUM"] == 2
    assert arity["LEM-POSDIFF"] == 2
    assert sum(1 for e in entries if e.arity == 1) == 11
    for e in entries:
        assert e.description


def test_default_tolerance():
    assert default_tolerance(0.5) == pytest.approx(1e-9)
    assert default_tolerance(100.0) == pytest.approx(1e-7)
    assert default_tolerance(-200.0, 3.0) == pytest.approx(2e-7)
    assert default_tolerance() == 1e-9
    assert default_tolerance(0.0) == 1e-9
    assert default_tolerance(float("nan"), 5.0) == 5e-9


@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_eigendecomposition_bounds_at_huge_scale(scale):
    # T3, FUNC and COR factor matrices with entries near scale^2; their
    # residual certificate must not overflow there.  T3 is homogeneous of
    # degree 2, FUNC and COR are not.
    a = generate(EnsembleSpec("ginibre", 3, 1, seed=0), 0)
    ctx = MatrixContext(a * scale)
    for bid in ("T3", "FUNC", "COR"):
        assert not evaluate(bid, ctx).violated
    base, t3 = evaluate("T3", MatrixContext(a)), evaluate("T3", ctx)
    assert t3.lhs == pytest.approx(scale ** 2 * base.lhs, rel=1e-12)
    assert t3.rhs == pytest.approx(scale ** 2 * base.rhs, rel=1e-12)


def test_context_caches_radius(rng):
    a = random_complex(rng, 3)
    ctx = _ctx(a)
    assert ctx.omega is ctx.omega
    assert ctx.abs_pair is ctx.abs_pair
    # two bounds sharing one context reuse the same enclosure
    b0 = eval_chain_b0(ctx)
    sq = eval_chain_sq(ctx)
    assert b0.terms[1] == pytest.approx(math.sqrt(sq.terms[1]), rel=1e-12)


def test_power_sqrt_pair_is_built_once_per_exponent():
    # one checked pair per exponent, whatever numeric type names it; an
    # invalid exponent is refused on every call, never cached
    assert power_sqrt_pair(2) is power_sqrt_pair(2.0) is power_sqrt_pair(np.float64(2))
    assert power_sqrt_pair(3) is not power_sqrt_pair(2)
    for r in (1.5, math.nan, math.inf, -math.inf):
        for _ in range(3):
            with pytest.raises(ValueError, match="finite and at least 2"):
                power_sqrt_pair(r)
    for token in ("COR:nan", "FUNC:inf", "COR:1e400"):
        with pytest.raises(ValueError, match="finite and at least 2"):
            parse_bound_id(token)


def _count_herm_fn(monkeypatch) -> list:
    calls = []
    original = nb.apply_herm_fn

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nb, "apply_herm_fn", counting)
    return calls


def test_func_and_cor_share_one_functional_chain(rng, monkeypatch):
    # FUNC makes one matrix function (g^{-1}); COR at the same exponent adds
    # only its literal sqrt(2S + I), and a new exponent evaluates both
    calls = _count_herm_fn(monkeypatch)
    ctx = _ctx(random_complex(rng, 4))
    func = evaluate("FUNC", ctx)
    assert len(calls) == 1
    cor = evaluate("COR:2", ctx)
    assert len(calls) == 2
    assert cor.terms[2] == func.terms[2]
    assert evaluate("FUNC:2", ctx) is func
    evaluate("COR:3", ctx)
    assert len(calls) == 4
    assert evaluate("FUNC", ctx, r=3).terms == eval_functional_chain(ctx, power_sqrt_pair(3)).terms


def test_contexts_never_share_a_functional_chain(rng, monkeypatch):
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    calls = _count_herm_fn(monkeypatch)
    first = evaluate("FUNC", _ctx(a))
    second = evaluate("FUNC", _ctx(b))
    assert len(calls) == 2
    assert second.terms != first.terms
    assert second.terms == eval_functional_chain(b, power_sqrt_pair(2)).terms


def test_failed_functional_chain_is_not_memoized(monkeypatch):
    # w^20 at the upper end of a loose 8-point enclosure overflows while
    # |A|^20 does not: FUNC raises after its g^{-1}, nothing is kept, and
    # COR:20 (whose literal middle is finite) evaluates the chain again
    c = 4e307 ** (1 / 20)
    ctx = MatrixContext(
        np.diag([c, c * np.exp(1j * np.pi / 4)]), RadiusConfig(grid_points=8, target_width=1e300)
    )
    calls = _count_herm_fn(monkeypatch)
    with pytest.raises(DomainError) as func_err:
        evaluate("FUNC:20", ctx)
    assert len(calls) == 1
    with pytest.raises(DomainError) as cor_err:
        evaluate("COR:20", ctx)
    assert len(calls) == 3
    assert str(cor_err.value) == str(func_err.value) == (
        "f(w(A)) is not finite in double precision (entries overflow)"
    )


def test_context_rejects_a_different_cfg(rng):
    # a context encloses with its own cfg, and there is no second place to
    # pass one: a config beside it is an error rather than silently ignored
    ctx = MatrixContext(random_complex(rng, 3), RadiusConfig())
    with pytest.raises(TypeError):
        evaluate("B0", ctx, RadiusConfig())
    with pytest.raises(TypeError):
        eval_bound_kit(ctx, RadiusConfig())
    # the functions that take a cfg take a raw matrix, never a context
    for fn in (nb.cartesian_radius_pair, numrad.ensembles.tightness_compare, MatrixContext):
        with pytest.raises(TypeError, match="own cfg"):
            fn(ctx, RadiusConfig(grid_points=16))
    for fn in (
        eval_chain_b0, eval_bound_kit, eval_chain_sq, eval_bound_lem1, eval_chain_t1,
        eval_chain_t2, eval_bound_t3, eval_bound_t3_printed, eval_functional_chain, eval_chain_cor,
    ):
        assert "cfg" not in inspect.signature(fn).parameters, fn.__name__
    params = inspect.signature(evaluate).parameters
    assert "cfg" not in params
    assert params["r"].kind is inspect.Parameter.KEYWORD_ONLY
    # a positional exponent is refused, not taken for a config
    with pytest.raises(TypeError):
        evaluate("COR", J, 3)


def test_tolerance_absorbs_enclosure_width(rng):
    # a deliberately loose radius cannot flag a sound bound as violated
    a = random_complex(rng, 4)
    loose = RadiusConfig(grid_points=16, target_width_rel=0.2)
    ctx = MatrixContext(a, loose)
    for bid in ("B0", "SQ", "LEM1+", "LEM1-", "T1"):
        rep = evaluate(bid, ctx)
        assert not rep.violated, bid
