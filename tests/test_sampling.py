"""Sampling, empirical tries, and residual queries."""
from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoclang import (
    Alphabet, ContractError, InputError, MultiplicityAutomaton, Sample,
    UndefinedResidualError, build_trie, draw_sample, empirical_residual_prefix,
    fixture, load_sample, prefix_weight, sample_word, save_sample,
)

AB = Alphabet(("a", "b"))
UN = Alphabet(("a",))


def make_sample(words, alphabet=AB) -> Sample:
    return Sample(alphabet, tuple(alphabet.word(w) for w in words))


# -- sample_word ----------------------------------------------------------------

def test_immediate_stop_always_empty():
    assert sample_word(fixture("dirac"), 5) == ()


def test_single_forced_letter():
    a = MultiplicityAutomaton(UN, [1.0, 0.0], [0.0, 1.0],
                              {"a": [[0.0, 1.0], [0.0, 0.0]]})
    rng = np.random.default_rng(0)
    assert all(sample_word(a, rng) == ("a",) for _ in range(50))


def test_half_loop_stop_frequency():
    rng = np.random.default_rng(1234)
    h = fixture("half_loop")
    hits = sum(1 for _ in range(10 ** 5) if sample_word(h, rng) == ())
    assert abs(hits / 10 ** 5 - 0.5) <= 0.01


def test_sampling_requires_pa():
    bad = MultiplicityAutomaton(UN, [1.0], [0.6], {"a": [[0.5]]})
    with pytest.raises(ContractError):
        sample_word(bad, 0)


# -- draw_sample ------------------------------------------------------------------

def test_empty_draw():
    s = draw_sample(fixture("half_loop"), 0, 0)
    assert s.size == 0 and s.words == ()


def test_half_loop_prefix_frequency():
    s = draw_sample(fixture("half_loop"), 10 ** 4, 7)
    t = build_trie(s)
    assert abs(t.p_prefix(("a",)) - 0.5) <= 0.02


def test_draws_are_deterministic():
    h = fixture("two_state_pda")
    assert draw_sample(h, 500, 99).words == draw_sample(h, 500, 99).words
    assert draw_sample(h, 500, 99).words != draw_sample(h, 500, 100).words


def test_negative_size_rejected():
    with pytest.raises(InputError):
        draw_sample(fixture("dirac"), -1, 0)


def test_empirical_prefixes_track_the_series():
    target = fixture("two_state_pda")
    medians = []
    prefixes = [("a",) * k for k in range(4)]
    truth = [float(prefix_weight(target, u)) for u in prefixes]
    for n in (100, 1000, 10 ** 4):
        gaps = []
        for seed in range(20):
            t = build_trie(draw_sample(target, n, seed))
            gaps.append(max(abs(t.p_prefix(u) - v)
                            for u, v in zip(prefixes, truth)))
        medians.append(statistics.median(gaps))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] <= 0.05


# -- build_trie --------------------------------------------------------------------

def test_trie_of_two_empties():
    t = build_trie(make_sample(["", ""]))
    assert t.prefix_count(()) == 2 and t.end_count(()) == 2
    assert t.prefix_count(("a",)) == 0


def test_trie_counts_a_aa():
    t = build_trie(make_sample(["a", "aa"], UN))
    assert t.prefix_count(("a",)) == 2
    assert t.end_count(("a",)) == 1
    assert t.prefix_count(("a", "a")) == 1


def recount(words, u):
    return sum(1 for w in words if w[:len(u)] == u)


def test_trie_recount_invariant_random():
    rng = np.random.default_rng(42)
    s = draw_sample(fixture("two_state_pda"), 500, 11)
    t = build_trie(s)
    seen = {u for w in s.words for u in (w[:k] for k in range(len(w) + 1))}
    for u in seen:
        assert t.prefix_count(u) == recount(s.words, u)
        assert t.prefix_count(u) == (t.end_count(u)
                                     + sum(t.prefix_count(u + (x,))
                                           for x in s.alphabet.symbols))
    assert t.prefix_count(()) == s.size


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b"]), max_size=5), max_size=30))
def test_trie_recount_invariant_hypothesis(raw):
    words = [tuple(w) for w in raw]
    t = build_trie(Sample(AB, tuple(words)))
    seen = {u for w in words for u in (w[:k] for k in range(len(w) + 1))}
    for u in seen | {()}:
        assert t.prefix_count(u) == recount(words, u)
        assert t.end_count(u) == sum(1 for w in words if w == u)


# -- empirical_residual_prefix -------------------------------------------------------

def test_residual_of_empty_suffix_is_one():
    t = build_trie(make_sample(["a", "aa"], UN))
    assert empirical_residual_prefix(t, ("a",), ()) == 1.0


def test_residual_half():
    t = build_trie(make_sample(["a", "aa"], UN))
    assert empirical_residual_prefix(t, ("a",), ("a",)) == 0.5


def test_residual_two_thirds():
    t = build_trie(make_sample(["a", "b", "ab"]))
    assert empirical_residual_prefix(t, (), ("a",)) == pytest.approx(2 / 3)


def test_residual_outside_support():
    t = build_trie(make_sample(["a"], UN))
    with pytest.raises(UndefinedResidualError):
        empirical_residual_prefix(t, ("a", "a"), ())
    assert empirical_residual_prefix(t, ("a",), ("a",)) == 0.0


def test_residuals_partition_unit_mass():
    s = draw_sample(fixture("two_state_pda"), 400, 3)
    t = build_trie(s)
    seen = {u for w in s.words for u in (w[:k] for k in range(len(w) + 1))}
    for u in seen:
        total = t.end_count(u) / t.prefix_count(u)
        total += sum(empirical_residual_prefix(t, u, (x,))
                     for x in s.alphabet.symbols)
        assert total == pytest.approx(1.0, abs=1e-12)


# -- sample files -----------------------------------------------------------------------

def test_sample_file_round_trip(tmp_path):
    s = make_sample(["", "ab", "a", "", "bba"])
    p = tmp_path / "s.txt"
    save_sample(s, p)
    back = load_sample(p)
    assert back.words == s.words
    assert back.alphabet.symbols == s.alphabet.symbols


def test_sample_file_is_line_per_word(tmp_path):
    p = tmp_path / "s.txt"
    save_sample(make_sample(["ab", ""]), p)
    assert p.read_text() == "#alphabet: a b\na b\n\n"


def test_sample_file_requires_header(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("a b\n")
    with pytest.raises(InputError):
        load_sample(p)


def test_sampled_files_round_trip_exactly(tmp_path):
    s = draw_sample(fixture("two_state_pda"), 300, 5)
    p = tmp_path / "s.txt"
    save_sample(s, p)
    assert load_sample(p).words == s.words
