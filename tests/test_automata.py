"""Automaton evaluation against brute-force oracles and hand constants."""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoclang import (
    FLOAT, RATIONAL, Alphabet, DivergenceError, InputError,
    MultiplicityAutomaton, absolute_convergence_certificate, build_a_alpha,
    dumps_ma, equal_ma, is_pa, loads_ma, load_ma, power_norm_decay,
    prefix_weight, save_ma, spectral_radius, state_word_weight, tail_sum,
    trim, word_weight,
)

AB = Alphabet(("a", "b"))
UN = Alphabet(("a",))


def path_weight(a: MultiplicityAutomaton, w) -> float | Fraction:
    """Oracle: sum over all state paths of ι(q0)·Πφ(q_i,x,q_{i+1})·τ(q_k)."""
    w = a.alphabet.word(w)
    total = a.zero()
    for path in itertools.product(range(a.n), repeat=len(w) + 1):
        term = a.iota[path[0]]
        for x, qi, qj in zip(w, path, path[1:]):
            term = term * a.matrices[x][qi, qj]
        total = total + term * a.tau[path[-1]]
    return total


def level_sum(a: MultiplicityAutomaton, k: int):
    """Oracle: r_A(Σ^k) by summing word_weight over every length-k word."""
    return sum(word_weight(a, w) for w in a.alphabet.words_of_length(k))


def random_ma(rng: np.random.Generator, n: int, alphabet: Alphabet,
              mode: str = FLOAT) -> MultiplicityAutomaton:
    def w():
        v = rng.integers(-8, 9)
        return Fraction(int(v), 8) if mode == RATIONAL else float(v) / 8.0
    iota = [w() for _ in range(n)]
    tau = [w() for _ in range(n)]
    mats = {x: [[w() for _ in range(n)] for _ in range(n)]
            for x in alphabet.symbols}
    return MultiplicityAutomaton(alphabet, iota, tau, mats, mode=mode)


def half_loop(mode: str = RATIONAL) -> MultiplicityAutomaton:
    h = Fraction(1, 2) if mode == RATIONAL else 0.5
    one = 1 if mode == RATIONAL else 1.0
    return MultiplicityAutomaton(UN, [one], [h], {"a": [[h]]}, mode=mode)


# -- word_weight --------------------------------------------------------------

def test_half_loop_word_weight():
    assert word_weight(half_loop(), "aa") == Fraction(1, 8)
    assert word_weight(half_loop(FLOAT), "aa") == 0.125


def test_q2_series_is_halving():
    a = build_a_alpha(math.pi / 6, 0.0, 0.0, 1.0)
    assert word_weight(a, "aaa") == pytest.approx(1 / 8, abs=1e-12)


def test_word_weight_rejects_foreign_symbol():
    with pytest.raises(InputError):
        word_weight(half_loop(), "ab")


def test_word_weight_matches_path_enumeration_rational():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_ma(rng, int(rng.integers(1, 5)), AB, RATIONAL)
        for k in range(5):
            for w in itertools.islice(a.alphabet.words_of_length(k), 4):
                assert word_weight(a, w) == path_weight(a, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1), st.integers(0, 5))
def test_word_weight_matches_path_enumeration_float(n, seed, wlen):
    rng = np.random.default_rng(seed)
    a = random_ma(rng, n, AB, FLOAT)
    w = tuple(rng.choice(AB.symbols, wlen))
    assert word_weight(a, w) == pytest.approx(path_weight(a, w), abs=1e-10)


# -- state_word_weight ---------------------------------------------------------

def test_state_series_at_epsilon_is_tau():
    rng = np.random.default_rng(3)
    a = random_ma(rng, 3, AB)
    for q in range(3):
        assert state_word_weight(a, q, ()) == a.tau[q]


def test_rotation_state_series():
    a = build_a_alpha(math.pi / 6, 1.0, 0.0, 1.0)
    expect = (math.cos(math.pi / 6) - math.sin(math.pi / 6)) / 2
    assert state_word_weight(a, 0, "a") == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.18301270189221933, abs=1e-12)


def test_state_series_bad_index():
    with pytest.raises(IndexError):
        state_word_weight(half_loop(), 1, "a")


def test_state_series_matches_basis_vector_oracle():
    rng = np.random.default_rng(5)
    a = random_ma(rng, 3, AB)
    for q in range(3):
        basis = [0.0] * 3
        basis[q] = 1.0
        b = MultiplicityAutomaton(AB, basis, list(a.tau),
                                  {x: a.matrices[x] for x in AB.symbols})
        for w in ["", "a", "ab", "bba"]:
            assert state_word_weight(a, q, w) == pytest.approx(word_weight(b, w))


# -- prefix_weight / tail_sum --------------------------------------------------

def test_half_loop_total_mass():
    assert prefix_weight(half_loop(), ()) == 1
    assert prefix_weight(half_loop(FLOAT), ()) == pytest.approx(1.0, abs=1e-12)


def test_q2_prefix_mass_is_two():
    a = build_a_alpha(1.0, 0.0, 0.0, 1.0)
    assert prefix_weight(a, ()) == pytest.approx(2.0, abs=1e-9)


def test_rotation_prefix_mass_closed_form():
    al = math.pi / 6
    a = build_a_alpha(al, 1.0, 0.0, 0.0)
    closed = (4 - 2 * math.cos(al) - 2 * math.sin(al)) / (5 - 4 * math.cos(al))
    assert prefix_weight(a, ()) == pytest.approx(closed, abs=1e-9)
    partial = sum(word_weight(a, ("a",) * n) for n in range(201))
    assert closed == pytest.approx(partial, abs=1e-9)
    assert closed == pytest.approx(0.8255423698129905, abs=1e-12)


def random_convergent_ma(rng, n, alphabet, mode=FLOAT):
    a = random_ma(rng, n, alphabet, mode)
    rho = spectral_radius(a.letter_sum().astype(float))
    if rho < 0.9:
        return a
    c = 0.7 / rho
    if mode == RATIONAL:
        c = Fraction(7, int(math.ceil(10 * rho)))
    return MultiplicityAutomaton(
        alphabet, list(a.iota), list(a.tau),
        {x: [[a.matrices[x][i, j] * c for j in range(n)] for i in range(n)]
         for x in alphabet.symbols}, mode=mode)


def test_prefix_weight_transports_by_letters():
    # oracle: accumulate (ι·M_u)·M^k·τ without ever forming the resolvent
    rng = np.random.default_rng(9)
    a = random_convergent_ma(rng, 3, AB)
    m = a.letter_sum()
    for u in ["", "a", "ba", "abb"]:
        row = a.iota.copy()
        for x in a.alphabet.word(u):
            row = row @ a.matrices[x]
        parts, level = 0.0, row
        for _ in range(400):
            parts += float(level @ a.tau)
            level = level @ m
        assert prefix_weight(a, u) == pytest.approx(parts, abs=1e-8)


def test_half_loop_tails():
    h = half_loop()
    assert tail_sum(h, 0) == 1
    assert tail_sum(h, 2) == Fraction(1, 4)


def test_q2_tail_after_epsilon():
    a = build_a_alpha(math.pi / 6, 0.0, 0.0, 1.0)
    assert tail_sum(a, 1) == pytest.approx(1.0, abs=1e-9)


def test_tail_equals_total_minus_levels():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_ma(rng, int(rng.integers(1, 4)), AB)
        if spectral_radius(a.letter_sum()) >= 0.95:
            continue
        total = tail_sum(a, 0)
        for k in range(1, 7):
            levels = sum(level_sum(a, j) for j in range(k))
            assert tail_sum(a, k) == pytest.approx(total - levels, abs=1e-9)


def test_tail_consistency_bound_decays_geometrically():
    a = build_a_alpha(math.pi / 6, 1.0, 0.5, 1.0)
    m = a.letter_sum()
    inv = np.linalg.inv(np.eye(3) - m)
    total = tail_sum(a, 0)
    errs, bounds = [], []
    for k in (4, 8, 16):
        partial = sum(level_sum(a, j) for j in range(k + 1))
        bound = (np.linalg.norm(a.iota) * power_norm_decay(m, k + 1)
                 * np.linalg.norm(inv, 2) * np.linalg.norm(a.tau))
        err = abs(total - partial)
        assert err <= bound + 1e-12
        errs.append(err)
        bounds.append(bound)
    # the rotation phase makes the raw error wobble; the envelope halves per step
    assert bounds[1] <= bounds[0] / 15 and bounds[2] <= bounds[1] / 250
    assert errs[2] <= errs[0] / 100


def test_divergent_automaton_refused():
    a = MultiplicityAutomaton(UN, [1.0], [0.0], {"a": [[1.0]]})
    with pytest.raises(DivergenceError):
        tail_sum(a, 0)
    with pytest.raises(InputError):
        tail_sum(half_loop(), -1)


# -- spectral_radius / power_norm_decay ----------------------------------------

def test_spectral_radius_scalar_cases():
    assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5)
    assert spectral_radius(half_loop(FLOAT).letter_sum()) == pytest.approx(0.5)


def test_rotation_spectral_radius():
    a = build_a_alpha(math.pi / 6, 1.0, 0.0, 1.0)
    m = a.letter_sum()
    assert spectral_radius(m) == pytest.approx(0.5, abs=1e-9)
    # Gelfand cross-check: the k-th root of the norm approaches ρ from above
    assert power_norm_decay(m, 64) ** (1 / 64) == pytest.approx(0.5, abs=1e-6)


def test_power_norm_identity_and_scalar():
    assert power_norm_decay(np.eye(2), 7) == pytest.approx(1.0)
    assert power_norm_decay(half_loop(FLOAT).letter_sum(), 3) == pytest.approx(1 / 8)


def test_rotation_norm_decays_exactly_geometrically():
    # the letter matrix is (1/2)·orthogonal ⊕ (1/2), so ‖M^k‖ = 2^{-k}
    m = build_a_alpha(math.pi / 6, 1.0, 0.0, 1.0).letter_sum()
    cc = max(power_norm_decay(m, h) / 0.5 ** h for h in range(10))
    assert power_norm_decay(m, 10) <= cc * 0.5 ** 10 + 1e-15
    for k in (1, 5, 10):
        assert power_norm_decay(m, k) == pytest.approx(0.5 ** k, abs=1e-12)


def test_gelfand_sandwich():
    m = build_a_alpha(math.pi / 6, 1.0, 0.0, 1.0).letter_sum()
    cc = max(power_norm_decay(m, h) / 0.5 ** h for h in range(10))
    roots = []
    for k in (8, 32, 128):
        root = power_norm_decay(m, k) ** (1 / k)
        assert 0.5 - 1e-12 <= root <= 0.5 * (2 * cc) ** (1 / k) + 1e-12
        roots.append(root)
    assert abs(roots[2] - 0.5) <= abs(roots[0] - 0.5) + 1e-12


# -- is_pa ---------------------------------------------------------------------

def test_half_loop_is_pa_both_modes():
    assert is_pa(half_loop())
    assert is_pa(half_loop(FLOAT))


def test_overweight_terminal_breaks_pa():
    a = MultiplicityAutomaton(UN, [1.0], [0.6], {"a": [[0.5]]})
    check = is_pa(a)
    assert not check
    assert any("q0" in d for d in check.diagnostics)


def test_pa_needs_unit_initial_mass():
    a = MultiplicityAutomaton(UN, [0.5], [0.5], {"a": [[0.5]]})
    assert not is_pa(a)


def test_pa_rejects_negative_weight():
    a = MultiplicityAutomaton(UN, [1.0], [1.2], {"a": [[-0.2]]})
    assert not is_pa(a)


def test_pa_total_mass_is_one():
    from stoclang import random_pa
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_pa(rng, int(rng.integers(1, 5)), AB)
        assert is_pa(a)
        assert tail_sum(a, 0) == pytest.approx(1.0, abs=1e-9)


# -- trim ----------------------------------------------------------------------

def test_trim_keeps_trimmed_automaton():
    h = half_loop()
    assert trim(h) is h


def test_trim_drops_unreachable_state():
    a = MultiplicityAutomaton(
        UN, [1.0, 0.0], [0.5, 0.3],
        {"a": [[0.5, 0.0], [0.2, 0.1]]})
    t = trim(a)
    assert t.n == 1
    for k in range(6):
        w = ("a",) * k
        assert word_weight(t, w) == pytest.approx(word_weight(a, w), abs=1e-12)


def test_trim_drops_dead_end_state():
    a = MultiplicityAutomaton(
        UN, [1.0, 0.5], [0.5, 0.0],
        {"a": [[0.5, 0.3], [0.0, 0.2]]})
    t = trim(a)
    assert t.n == 1
    for k in range(6):
        w = ("a",) * k
        assert word_weight(t, w) == pytest.approx(path_weight(a, w), abs=1e-12)


def test_trim_to_zero_series():
    a = MultiplicityAutomaton(UN, [1.0], [0.0], {"a": [[0.0]]})
    t = trim(a)
    assert t.is_zero_series and t.n == 0
    assert word_weight(t, "aa") == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_trim_preserves_series(seed):
    rng = np.random.default_rng(seed)
    a = random_ma(rng, int(rng.integers(1, 5)), AB)
    t = trim(a)
    for k in range(4):
        for w in itertools.islice(AB.words_of_length(k), 6):
            assert word_weight(t, w) == pytest.approx(word_weight(a, w), abs=1e-10)


# -- absolute convergence certificate -------------------------------------------

def test_half_loop_certificate():
    cert = absolute_convergence_certificate(half_loop())
    assert cert.certified
    assert cert.rho_abs == pytest.approx(0.5)
    assert cert.abs_mass_bound == pytest.approx(1.0)


def test_rotation_certificate():
    a = build_a_alpha(math.pi / 6, 1.0, 0.0, 0.0)
    cert = absolute_convergence_certificate(a)
    assert cert.certified
    row = (math.cos(math.pi / 6) + math.sin(math.pi / 6)) / 2
    assert cert.rho_abs <= row + 1e-9


def test_overweight_loop_not_certified():
    a = MultiplicityAutomaton(UN, [1.0], [0.5], {"a": [[1.2]]})
    cert = absolute_convergence_certificate(a)
    assert not cert.certified
    assert math.isinf(cert.abs_mass_bound)


def test_certificate_bounds_absolute_mass():
    rng = np.random.default_rng(23)
    found = 0
    while found < 8:
        a = random_ma(rng, int(rng.integers(1, 4)), UN)
        cert = absolute_convergence_certificate(a)
        if not cert.certified:
            continue
        found += 1
        total = sum(abs(word_weight(a, ("a",) * k)) for k in range(13))
        assert total <= cert.abs_mass_bound + 1e-9


# -- build_a_alpha ---------------------------------------------------------------

def test_zero_angle_collapses_to_halving():
    a = build_a_alpha(0.0, 0.0, 0.0, 1.0)
    for n in range(9):
        assert word_weight(a, ("a",) * n) == pytest.approx(0.5 ** n, abs=1e-12)
    assert tail_sum(a, 0) == pytest.approx(2.0, abs=1e-9)


def test_rotation_component_formulas():
    al = math.pi / 6
    a = build_a_alpha(al, 1.0, 0.0, 1.0)
    for n in range(9):
        expect = (math.cos(n * al) - math.sin(n * al)) / 2 ** n + 0.5 ** n
        assert word_weight(a, ("a",) * n) == pytest.approx(expect, abs=1e-12)


def test_third_state_series_for_any_angle():
    for al in (0.0, math.pi / 6, 1.0, 2.5):
        a = build_a_alpha(al, 0.3, 0.4, 0.3)
        for n in range(11):
            assert state_word_weight(a, 2, ("a",) * n) == pytest.approx(
                0.5 ** n, abs=1e-12)


# -- serialization ----------------------------------------------------------------

def test_float_round_trip_is_exact():
    rng = np.random.default_rng(29)
    a = random_ma(rng, 3, AB)
    b = loads_ma(dumps_ma(a))
    assert equal_ma(a, b)


def test_rational_round_trip_is_bit_exact():
    big = Fraction(2 ** 61 + 7, 10 ** 15 + 1)
    a = MultiplicityAutomaton(UN, [1], [big], {"a": [[Fraction(1, 3)]]},
                              mode=RATIONAL, labels=[()])
    b = loads_ma(dumps_ma(a))
    assert equal_ma(a, b)
    assert b.tau[0] == big


def test_save_load_files(tmp_path):
    a = half_loop()
    p = tmp_path / "h.json"
    save_ma(a, p)
    assert equal_ma(load_ma(p), a)


def test_malformed_documents_rejected():
    doc = json.loads(dumps_ma(half_loop()))
    del doc["iota"]
    with pytest.raises(InputError):
        loads_ma(json.dumps(doc))
    with pytest.raises(InputError):
        loads_ma("not json at all")


def test_zero_denominator_weight_rejected():
    doc = {"alphabet": ["a"], "mode": "rational", "n": 1, "iota": ["1/1"],
           "tau": ["1/0"], "matrices": {"a": [["0/1"]]}}
    with pytest.raises(InputError, match="zero denominator"):
        loads_ma(json.dumps(doc))


def test_boolean_float_weight_rejected():
    doc = {"alphabet": ["a"], "mode": "float", "n": 1, "iota": [1.0],
           "tau": [True], "matrices": {"a": [[0.5]]}}
    with pytest.raises(InputError, match="True"):
        loads_ma(json.dumps(doc))


def test_mode_mixing_is_rejected():
    with pytest.raises(InputError):
        MultiplicityAutomaton(UN, [1.0], [0.5], {"a": [[0.5]]}, mode=RATIONAL)


def test_weights_are_read_only():
    h = half_loop(FLOAT)
    with pytest.raises(ValueError):
        h.iota[0] = 2.0
