"""Residual learner, feasibility systems, and reduced representations."""
from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from stoclang import (
    Alphabet, ContractError, FeasibilityRow, FeasibilitySystem, InputError,
    Sample, build_a_alpha, build_system, build_trie, dees, draw_sample,
    epsilon_schedule, equal_ma, fixture, is_pa, prefix_weight,
    prefixial_reduced_representation, random_pa, solve_feasibility,
    state_word_weight, structure_agrees, trim, unit_mass, word_weight,
)

AB = Alphabet(("a", "b"))
UN = Alphabet(("a",))


def make_sample(words, alphabet=AB) -> Sample:
    return Sample(alphabet, tuple(alphabet.word(w) for w in words))


# -- epsilon_schedule -------------------------------------------------------------

def test_schedule_values():
    assert epsilon_schedule(1) == 1.0
    assert epsilon_schedule(1000) == pytest.approx(0.1, abs=1e-15)
    assert epsilon_schedule(10 ** 6) == pytest.approx(0.01, abs=1e-15)


def test_schedule_is_cube_root_law():
    for n in (2, 17, 500, 10 ** 5):
        assert epsilon_schedule(n) == float(n) ** (-1.0 / 3.0)


def test_schedule_rejects_empty():
    with pytest.raises(InputError):
        epsilon_schedule(0)


# -- build_system -----------------------------------------------------------------

def test_system_single_word_sample():
    trie = build_trie(make_sample(["a"], UN))
    sys = build_system(trie, ((),), ("a",), eps=0.3)
    assert sys.variables == ((),)
    assert [(r.w, r.target, r.coeffs) for r in sys.rows] == [
        ((), 1.0, (1.0,)),
        (("a",), 0.0, (1.0,)),
    ]


def test_system_two_letter_sample():
    trie = build_trie(make_sample(["a", "b"]))
    sys = build_system(trie, ((),), ("a",), eps=0.3)
    assert [(r.w, r.target, r.coeffs) for r in sys.rows] == [
        ((), 1.0, (1.0,)),
        (("a",), 0.0, (0.5,)),
        (("b",), 0.0, (0.5,)),
    ]


def brute_factors(words):
    out = {()}
    for w in words:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                out.add(w[i:j])
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b"]), max_size=6), min_size=1,
                max_size=20), st.data())
def test_system_is_the_paper_system_without_zero_rows(raw, data):
    # I(Q, v, S, eps) has one row per w ∈ fact(S); built here from raw
    # counts, its rows that are not all zero are exactly build_system's
    words = [tuple(w) for w in raw]
    counts = Counter(words)
    with_mass = sorted({w[:k] for w in words for k in range(len(w) + 1)},
                       key=AB.lenlex_key)
    v = data.draw(st.sampled_from(with_mass))
    states = data.draw(st.lists(st.sampled_from(with_mass), min_size=1,
                                max_size=4, unique=True))

    def prefix_count(u):
        return sum(c for w, c in counts.items() if w[:len(u)] == u)

    expect = []
    for w in sorted(brute_factors(words), key=AB.lenlex_key):
        target = prefix_count(v + w) / prefix_count(v)
        coeffs = tuple(prefix_count(u + w) / prefix_count(u) for u in states)
        if target != 0 or any(coeffs):
            expect.append((w, target, coeffs))
    sys = build_system(build_trie(Sample(AB, tuple(words))), states, v, eps=0.1)
    assert sys.variables == tuple(states)
    assert [(r.w, r.target, r.coeffs) for r in sys.rows] == expect


def test_system_rows_in_length_lex_order():
    trie = build_trie(make_sample(["ab", "ba", "b"]))
    sys = build_system(trie, ((),), ("b",), eps=0.5)
    keys = [AB.lenlex_key(r.w) for r in sys.rows]
    assert keys == sorted(keys)


def test_system_rejects_unseen_candidate():
    trie = build_trie(make_sample(["a"]))
    with pytest.raises(ContractError):
        build_system(trie, ((),), ("b",), eps=0.3)


# -- solve_feasibility ------------------------------------------------------------

def test_empty_system_is_trivially_feasible():
    sys = FeasibilitySystem(variables=((),), rows=(), eps=0.1)
    out = solve_feasibility(sys)
    assert out.feasible
    assert out.solution == {(): pytest.approx(1.0)}
    assert out.achieved_eps == pytest.approx(0.0)


def test_two_letter_system_tight_slack():
    # best achievable slack is 1/2: the convex constraint forces x = 1,
    # leaving |0 - 1/2| on the second and third rows
    trie = build_trie(make_sample(["a", "b"]))
    out = solve_feasibility(build_system(trie, ((),), ("a",), eps=0.3))
    assert not out.feasible
    assert out.achieved_eps == pytest.approx(0.5)


def test_two_letter_system_loose_slack():
    trie = build_trie(make_sample(["a", "b"]))
    out = solve_feasibility(build_system(trie, ((),), ("a",), eps=0.5))
    assert out.feasible
    assert out.solution[()] == pytest.approx(1.0)
    assert out.achieved_eps == pytest.approx(0.5)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_feasibility_monotone_in_slack(seed):
    # a system feasible at slack e stays feasible at any e' >= e
    import numpy as np
    rng = np.random.default_rng(seed)
    n_vars, n_rows = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    variables = tuple((("a",) * i) for i in range(n_vars))
    rows = tuple(
        FeasibilityRow(w=("a",) * k, target=float(rng.uniform(-1, 1)),
                       coeffs=tuple(float(c) for c in rng.uniform(-1, 1, n_vars)))
        for k in range(n_rows))
    base = solve_feasibility(FeasibilitySystem(variables, rows, eps=0.0))
    star = base.achieved_eps
    for bump in (0.0, 0.1, 1.0):
        out = solve_feasibility(FeasibilitySystem(variables, rows, eps=star + bump))
        assert out.feasible
    if star > 1e-6:
        tight = solve_feasibility(FeasibilitySystem(variables, rows, eps=star / 2))
        assert not tight.feasible


def chebyshev_optimum(variables, rows) -> float:
    """min t s.t. |Ax − b| ≤ t, Σx = 1, t ≥ 0, solved by HiGHS."""
    k = len(variables)
    a = np.array([r.coeffs for r in rows], dtype=float).reshape(len(rows), k)
    b = np.array([r.target for r in rows], dtype=float)
    ones = np.ones((len(rows), 1))
    res = linprog(np.r_[np.zeros(k), 1.0],
                  A_ub=np.vstack([np.hstack([a, -ones]), np.hstack([-a, -ones])]),
                  b_ub=np.r_[b, -b], A_eq=np.r_[np.ones(k), 0.0][None, :], b_eq=[1.0],
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.status == 0
    return float(res.fun)


def random_rows(rng, n_vars: int, n_rows: int) -> tuple[FeasibilityRow, ...]:
    coeffs = rng.uniform(-1, 1, (n_rows, n_vars))
    if n_vars > 1 and rng.random() < 0.3:
        coeffs[:, -1] = coeffs[:, 0]  # two states with the same residual
    return tuple(FeasibilityRow(w=("a",) * i, target=float(rng.uniform(-1, 1)),
                                coeffs=tuple(float(c) for c in coeffs[i]))
                 for i in range(n_rows))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_feasibility_ignores_row_order_repeats_and_zero_rows(seed):
    # the optimum matches HiGHS, the dual objective certifies it from below,
    # and neither the verdict nor the optimum depends on how rows are listed
    rng = np.random.default_rng(seed)
    n_vars, n_rows = int(rng.integers(1, 7)), int(rng.integers(1, 30))
    variables = tuple((("a",) * i) for i in range(n_vars))
    rows = random_rows(rng, n_vars, n_rows)
    optimum = chebyshev_optimum(variables, rows)
    eps = optimum * float(rng.choice([0.5, 2.0])) + float(rng.choice([0.0, 1e-3]))
    base = solve_feasibility(FeasibilitySystem(variables, rows, eps))
    assert base.achieved_eps == pytest.approx(optimum, abs=1e-7)
    assert base.dual_bound <= base.achieved_eps + 1e-9
    assert base.dual_bound == pytest.approx(base.achieved_eps, abs=1e-9)
    zero = FeasibilityRow(w=("b",), target=0.0, coeffs=(0.0,) * n_vars)
    repeats = [int(i) for i in rng.integers(0, n_rows, 3)]
    variants = (
        tuple(rows[int(i)] for i in rng.permutation(n_rows)),
        rows + tuple(rows[i] for i in repeats),
        (zero,) + rows[:1] + (zero, zero) + rows[1:],
    )
    for variant in variants:
        out = solve_feasibility(FeasibilitySystem(variables, variant, eps))
        assert out.feasible == base.feasible
        assert out.achieved_eps == pytest.approx(base.achieved_eps, abs=1e-9)


def test_row_order_cannot_make_a_feasible_system_infeasible():
    # a 4-state random PA at n = 3·10⁴; sorting this system's rows once drove
    # a phase-1 pivot sequence into a false "infeasible" verdict
    sample = draw_sample(random_pa(np.random.default_rng(1), 4, "abc", min_stop=0.1),
                         30000, 0)
    states = [(), ("c",), ("c", "c"), ("c", "c", "a"), ("c", "c", "a", "a"),
              ("c", "c", "a", "b")]
    full = build_system(build_trie(sample), states, tuple("ccacbc"),
                        eps=30000 ** (-1.0 / 3.0))
    first = {}
    for r in full.rows:
        if r.target != 0 or any(r.coeffs):
            first.setdefault((r.coeffs, r.target), r)
    distinct = tuple(first.values())
    ordered = tuple(sorted(distinct, key=lambda r: (r.coeffs, r.target)))
    assert (len(full.rows), len(distinct)) == (940, 125)
    for rows in (full.rows, distinct, ordered):
        out = solve_feasibility(FeasibilitySystem(full.variables, rows, full.eps))
        assert out.feasible
        assert out.achieved_eps == pytest.approx(0.0298478031, abs=1e-9)


# -- dees -------------------------------------------------------------------------

def test_learn_point_mass_on_empty_word():
    out = dees(Sample(UN, ((),) * 100))
    a = out.automaton
    assert a.labels == ((),)
    assert a.iota[0] == 1.0 and a.tau[0] == 1.0
    assert a.matrices["a"][0, 0] == 0.0


def test_learn_point_mass_on_aa_is_exact_chain():
    # every observed residual is deterministic, so the learner recovers the
    # three-state chain with unit transition weights regardless of slack
    out = dees(Sample(UN, (("a", "a"),) * 50))
    a = out.automaton
    assert a.labels == ((), ("a",), ("a", "a"))
    assert list(a.iota) == [1.0, 0.0, 0.0]
    assert list(a.tau) == [0.0, 0.0, 1.0]
    m = a.matrices["a"]
    assert m[0, 1] == 1.0 and m[1, 2] == 1.0
    assert m[0, 0] == m[2, 0] == m[2, 2] == 0.0


def test_learn_half_loop_parameters():
    h = fixture("half_loop")
    sample = draw_sample(h, 10 ** 4, 7)
    a = dees(sample).automaton
    assert a.n == 1
    # the slack at n = 10^4 is about 0.046; the estimates sit far inside it
    assert abs(a.tau[0] - 0.5) <= 0.046
    assert abs(a.matrices["a"][0, 0] - 0.5) <= 0.046


def test_learn_two_state_structure():
    pda = fixture("two_state_pda")
    for seed in (1, 2, 3, 4, 5):
        a = dees(draw_sample(pda, 10 ** 4, seed)).automaton
        assert a.labels == ((), ("a",))


def test_learner_rejects_empty_sample():
    with pytest.raises(InputError):
        dees(Sample(UN, ()))


def test_learned_automaton_is_prefixial():
    a = dees(draw_sample(fixture("two_state_pda"), 2000, 11)).automaton
    assert a.labels is not None
    labels = set(a.labels)
    for lab in labels:
        # label set is prefix closed
        assert all(lab[:k] in labels for k in range(len(lab)))
    assert list(a.iota) == [1.0] + [0.0] * (a.n - 1)
    assert trim(a).n == a.n


def test_learner_is_deterministic():
    sample = draw_sample(fixture("two_state_pda"), 3000, 23)
    first, second = dees(sample), dees(sample)
    assert equal_ma(first.automaton, second.automaton)
    assert first.to_jsonl() == second.to_jsonl()


def test_noisy_estimates_need_not_form_a_pa():
    # finite-sample transition estimates can dip below zero even though
    # the target is a bona fide PA
    sample = draw_sample(fixture("two_state_pda"), 200, 0)
    a = dees(sample).automaton
    check = is_pa(a)
    assert not check.ok
    assert any("outside [0,1]" in d for d in check.diagnostics)


def test_trace_records_lenlex_decisions():
    sample = draw_sample(fixture("two_state_pda"), 3000, 23)
    out = dees(sample)
    keys = [UN.lenlex_key(s.v) for s in out.steps]
    assert keys == sorted(keys)
    assert all(s.decision in ("new-state", "combination") for s in out.steps)
    new_states = [s.v for s in out.steps if s.decision == "new-state"]
    assert tuple(new_states) == out.automaton.labels[1:]
    for s in out.steps:
        if s.decision == "combination":
            assert s.coefficients is not None
            assert sum(s.coefficients.values()) == pytest.approx(1.0)


def test_trace_serializes_to_jsonl():
    out = dees(draw_sample(fixture("half_loop"), 500, 3))
    lines = out.to_jsonl().splitlines()
    assert len(lines) == len(out.steps)
    for line, step in zip(lines, out.steps):
        rec = json.loads(line)
        assert rec["v"] == list(step.v)
        assert rec["decision"] == step.decision


# -- structure_agrees -------------------------------------------------------------

def test_structure_agrees_with_itself():
    a = dees(draw_sample(fixture("two_state_pda"), 5000, 2)).automaton
    assert structure_agrees(a, a)


def test_structure_distinguishes_state_counts():
    one = dees(Sample(UN, ((),) * 50)).automaton
    two = dees(Sample(UN, (("a", "a"),) * 50)).automaton
    assert not structure_agrees(one, two)


def test_learned_structure_matches_reduced_target():
    target = prefixial_reduced_representation(fixture("half_loop"))
    learned = dees(draw_sample(fixture("half_loop"), 10 ** 4, 5)).automaton
    assert structure_agrees(learned, target)


def test_structure_needs_labels():
    h = fixture("half_loop")
    assert h.labels is None
    with pytest.raises(ContractError):
        structure_agrees(h, h)


# -- prefixial_reduced_representation ----------------------------------------------

def test_reduction_fixes_single_state_loop():
    h = fixture("half_loop")
    r = prefixial_reduced_representation(h)
    assert r.labels == ((),)
    assert r.iota[0] == Fraction(1) and r.tau[0] == Fraction(1, 2)
    assert r.matrices["a"][0, 0] == Fraction(1, 2)


def test_reduction_of_two_state_chain_is_exact():
    r = prefixial_reduced_representation(fixture("two_state_pda"))
    assert r.labels == ((), ("a",))
    assert list(r.iota) == [Fraction(1), Fraction(0)]
    assert list(r.tau) == [Fraction(1, 5), Fraction(9, 10)]
    m = r.matrices["a"]
    assert m[0, 1] == Fraction(4, 5) and m[1, 1] == Fraction(1, 10)
    assert m[0, 0] == 0 and m[1, 0] == 0


def test_reduction_is_idempotent():
    r = prefixial_reduced_representation(fixture("two_state_pda"))
    assert equal_ma(prefixial_reduced_representation(r), r)


def test_reduction_point_mass():
    r = prefixial_reduced_representation(fixture("dirac"))
    assert r.labels == ((),)
    assert r.tau[0] == Fraction(1)


def test_reduction_keeps_negative_prefix_branches():
    # the rotation automaton has sign-changing prefix masses; state
    # extension must follow any nonzero residual, not only positive ones
    a = unit_mass(build_a_alpha(math.pi / 6, 1.0, 0.0, 1.0))
    r = prefixial_reduced_representation(a)
    assert r.n == 3
    assert r.labels == ((), ("a",), ("a", "a"))
    for i, lab in enumerate(r.labels):
        base = prefix_weight(a, lab)
        for k in range(7):
            w = ("a",) * k
            assert state_word_weight(r, i, w) == pytest.approx(
                word_weight(a, lab + w) / base, abs=1e-9)


def test_reduction_preserves_the_series():
    a = unit_mass(build_a_alpha(1.0, 0.5, 0.25, 1.0))
    r = prefixial_reduced_representation(a)
    for k in range(12):
        w = ("a",) * k
        assert word_weight(r, w) == pytest.approx(word_weight(a, w), abs=1e-9)


def test_reduction_requires_unit_mass():
    with pytest.raises(ContractError):
        prefixial_reduced_representation(build_a_alpha(0.0, 1.0, 1.0, 1.0))
