"""Acceptance suite: one test and one printed verdict line per criterion."""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from stoclang import (
    Alphabet, ExperimentConfig, MultiplicityAutomaton, NormalizedSeries,
    best_rational_within, build_a_alpha, dees, draw_sample, dumps_ma, equal_ma,
    exactify_ma, fixture, in_support, lambda_at, neg_total_and_abs_mass,
    pr_eval, pr_prefix_mass, pr_sample, prefixial_reduced_representation,
    random_certified_ma, run_experiment, save_sample, tail_sum, word_weight,
)

UN = Alphabet(("a",))
AB = Alphabet(("a", "b"))


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def path_weight(a: MultiplicityAutomaton, w) -> Fraction:
    """Sum over all state paths of ι(q0)·φ(q0,x1,q1)···τ(qk).

    Depth-first over the full path tree, accumulating the product along
    the way; every one of the n^(|w|+1) paths is visited.  The weights of
    `random_ma` are signed eighths, so the products are taken on integer
    numerators (weight × 8) and their sum is divided once by 8^(|w|+2).
    """
    def eighths(v) -> int:
        num = v * 8
        assert num == int(num), f"weight {v} is not a multiple of 1/8"
        return int(num)

    iota = [eighths(v) for v in a.iota]
    tau = [eighths(v) for v in a.tau]
    mats = [[[eighths(v) for v in row] for row in a.matrices[x]] for x in w]
    states = range(a.n)
    total = 0

    def walk(depth, i, acc):
        nonlocal total
        if depth == len(w):
            total += acc * tau[i]
            return
        row = mats[depth][i]
        for j in states:
            walk(depth + 1, j, acc * row[j])

    for i in states:
        walk(0, i, iota[i])
    return Fraction(total, 8 ** (len(w) + 2))


def random_ma(rng, n, alphabet, rational) -> MultiplicityAutomaton:
    """Weights are signed eighths, exact in both arithmetic modes."""
    def w():
        v = int(rng.integers(-8, 9))
        return Fraction(v, 8) if rational else v / 8.0
    return MultiplicityAutomaton(
        alphabet,
        [w() for _ in range(n)], [w() for _ in range(n)],
        {x: [[w() for _ in range(n)] for _ in range(n)] for x in alphabet.symbols},
        mode="rational" if rational else "float")


# The shape of two_state_pda (stop at ε, ε→a on `a`, a loop at a) with every
# reduced denominator ≤ 4, the largest that eps = n^(-1/4) admits at n = 10⁵
# (eps ≤ 1/q² needs q⁸ ≤ n); denominators 3 and 4 put it at that edge.
QUARTER_THIRD_PDA = MultiplicityAutomaton(
    UN, [1, 0], [Fraction(1, 4), Fraction(2, 3)],
    {"a": [[0, Fraction(3, 4)], [0, Fraction(1, 3)]]}, mode="rational")


def max_denominator(a: MultiplicityAutomaton) -> int:
    """Largest denominator among the weights of a rational-mode automaton."""
    weights = [*a.iota, *a.tau, *(w for m in a.matrices.values() for w in m.flat)]
    return max(Fraction(w).denominator for w in weights)


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        alphabet = UN if rng.integers(2) == 0 else AB
        rational = trial % 2 == 0
        a = random_ma(rng, n, alphabet, rational)
        for _ in range(10):
            k = int(rng.integers(0, 7))
            w = tuple(alphabet.symbols[i]
                      for i in rng.integers(0, len(alphabet.symbols), k))
            got, want = word_weight(a, w), path_weight(a, w)
            if rational:
                assert got == want
            else:
                assert abs(got - want) <= 1e-10
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 2000 and elapsed < 10.0
    verdict(1, ok, f"word_weight vs path enumeration on 200 MAs "
                   f"({checked} words, {elapsed:.1f}s)")
    assert ok


def test_criterion_2_rotation_constants():
    start = time.monotonic()
    worst = 0.0
    for alpha in (0.0, math.pi / 6, 1.0):
        c, s = math.cos(alpha), math.sin(alpha)
        closed = {0: (4 - 2 * c - 2 * s) / (5 - 4 * c),
                  1: (4 - 2 * c + 2 * s) / (5 - 4 * c),
                  2: 2.0}
        # component series: (cos nα ∓ sin nα)/2ⁿ and 2⁻ⁿ
        partial = {0: sum((math.cos(n * alpha) - math.sin(n * alpha)) / 2 ** n
                          for n in range(201)),
                   1: sum((math.cos(n * alpha) + math.sin(n * alpha)) / 2 ** n
                          for n in range(201)),
                   2: sum(2.0 ** -n for n in range(201))}
        for i in range(3):
            lams = [0.0] * 3
            lams[i] = 1.0
            a = build_a_alpha(alpha, *lams)
            total = float(tail_sum(a, 0))
            worst = max(worst, abs(total - closed[i]), abs(total - partial[i]))
        assert abs(float(tail_sum(build_a_alpha(alpha, 0, 0, 1), 0)) - 2.0) <= 1e-9
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(2, ok, f"σ components match closed forms and partial sums "
                   f"(worst gap {worst:.2e}, {elapsed:.2f}s)")
    assert ok


def test_criterion_3_structure_identification():
    start = time.monotonic()
    truth = {"half_loop": 1, "two_state_pda": 2}
    hits = {}
    excess = 0
    for name, want in truth.items():
        target = fixture(name)
        hits[name] = sum(
            1 for seed in range(20)
            if dees(draw_sample(target, 10 ** 4, seed)).automaton.n == want)
        for seed in range(20):
            n5 = dees(draw_sample(target, 10 ** 5, seed)).automaton.n
            excess = max(excess, n5 - want)
    elapsed = time.monotonic() - start
    ok = all(h >= 18 for h in hits.values()) and excess <= 1 and elapsed < 120.0
    verdict(3, ok, f"state counts at n=1e4: {hits} of 20; "
                   f"max overshoot at n=1e5: {excess} ({elapsed:.0f}s)")
    assert ok


def test_criterion_4_parameter_rate():
    start = time.monotonic()
    sizes = (10 ** 3, 10 ** 4, 10 ** 5)
    target = fixture("half_loop")
    medians = []
    for n in sizes:
        errs = []
        for seed in range(20):
            a = dees(draw_sample(target, n, seed)).automaton
            errs.append(abs(float(a.matrices["a"][0, 0]) - 0.5))
        errs.sort()
        medians.append((errs[9] + errs[10]) / 2)
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    elapsed = time.monotonic() - start
    ok = (medians[0] > medians[1] > medians[2] and slope <= -0.25
          and elapsed < 180.0)
    verdict(4, ok, f"median |phi-1/2| = {[f'{m:.2e}' for m in medians]}, "
                   f"slope {slope:.2f} ({elapsed:.0f}s)")
    assert ok


def test_criterion_5_exact_identification():
    start = time.monotonic()
    n = 10 ** 5
    targets = {"half_loop": fixture("half_loop"),
               "quarter_third_pda": QUARTER_THIRD_PDA}
    rates, edges = {}, {}
    for name, target in targets.items():
        goal = prefixial_reduced_representation(target)
        q = max_denominator(goal)
        good = 0
        for seed in range(20):
            learned = dees(draw_sample(target, n, seed)).automaton
            exact, report = exactify_ma(learned, n)
            # the criterion may only ask for what the rounding schedule admits
            assert report.eps <= 1 / q ** 2, (
                f"{name}: denominator {q} is not admissible at eps={report.eps}")
            if report.complete and equal_ma(exact, goal):
                good += 1
        rates[name] = good
        edges[name] = f"q={q} at eps={report.eps:.4f}"
    elapsed = time.monotonic() - start
    ok = all(r >= 16 for r in rates.values()) and elapsed < 180.0
    verdict(5, ok, f"exact recovery at n=1e5: {rates} of 20; "
                   f"largest denominator {edges} ({elapsed:.0f}s)")
    assert ok


def test_criterion_6_normalization_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    pool = []
    while len(pool) < 50:
        a = random_certified_ma(rng, n_states=int(rng.integers(2, 4)),
                                alphabet=UN if rng.integers(2) == 0 else AB)
        if a is not None:
            pool.append(a)
    for a in pool:
        ns = NormalizedSeries(a)
        alphabet = a.alphabet
        for u in alphabet.words_upto(8):
            if not in_support(ns, u):
                assert pr_prefix_mass(ns, u) == 0.0
                continue
            kids = sum(pr_prefix_mass(ns, u + (x,)) for x in alphabet.symbols)
            assert abs(pr_prefix_mass(ns, u) - (pr_eval(ns, u) + kids)) <= 1e-10
            assert 0.0 < lambda_at(ns, u) <= 1.0
            r = word_weight(a, u)
            if r > 0:
                assert pr_eval(ns, u) <= r + 1e-12
        covered = sum(float(pr_eval(ns, u)) for u in alphabet.words_upto(10))
        d = neg_total_and_abs_mass(ns, 10)
        assert 1.0 - covered <= d["abs_mass_upper"] - d["abs_mass_lower"] + 1e-9
    chain = MultiplicityAutomaton(
        UN, [1.0, 0.0, 0.0], [0.6, -0.1, 0.5],
        {"a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]})
    ns = NormalizedSeries(chain)
    assert lambda_at(ns, ("a",)) == 0.8
    assert (pr_eval(ns, ()), pr_eval(ns, ("a",)), pr_eval(ns, ("a", "a"))) \
        == (0.6, 0.0, 0.4)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    verdict(6, ok, f"50 certified perturbed automata normalize soundly "
                   f"({elapsed:.0f}s)")
    assert ok


def test_criterion_7_negative_mass_decay():
    start = time.monotonic()
    target = fixture("half_loop")
    medians = []
    for n in (10 ** 2, 10 ** 3, 10 ** 4):
        vals = []
        for seed in range(20):
            a = dees(draw_sample(target, n, seed)).automaton
            ns = NormalizedSeries(a)
            vals.append(abs(float(neg_total_and_abs_mass(ns, 8)["neg_total"])))
        vals.sort()
        medians.append((vals[9] + vals[10]) / 2)
    elapsed = time.monotonic() - start
    ok = (all(a >= b for a, b in zip(medians, medians[1:]))
          and elapsed < 60.0)
    verdict(7, ok, f"median truncated |r(N)| = {medians} ({elapsed:.0f}s)")
    assert ok


def test_criterion_8_rational_uniqueness():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    returned = 0
    for _ in range(10 ** 3):
        y = float(rng.uniform(0, 1))
        eps = float(10.0 ** rng.uniform(-6, -1))
        got = best_rational_within(y, eps)
        qmax = math.ceil(1.0 / math.sqrt(eps))
        admissible = set()
        for q in range(1, qmax + 1):
            if eps > 1.0 / q ** 2 + 1e-15:
                break
            for p in (math.floor(y * q), math.ceil(y * q)):
                if abs(y - p / q) <= eps + 1e-12:
                    admissible.add(Fraction(p, q))
        if got is None:
            assert len(admissible) != 1
        else:
            returned += 1
            assert admissible == {got}
    known = (best_rational_within(0.3332, 0.001),
             best_rational_within(0.285714, 1e-5),
             best_rational_within(float(Fraction(355, 113)), 1e-5))
    elapsed = time.monotonic() - start
    ok = (known == (Fraction(1, 3), Fraction(2, 7), Fraction(355, 113))
          and elapsed < 5.0)
    verdict(8, ok, f"uniqueness on 1000 pairs ({returned} recoveries), "
                   f"known values {tuple(str(k) for k in known)} ({elapsed:.1f}s)")
    assert ok


def test_criterion_9_determinism(tmp_path):
    target = fixture("two_state_pda")

    def stage_bytes() -> tuple:
        sample = draw_sample(target, 500, 42)
        path = tmp_path / "s.txt"
        save_sample(sample, str(path))
        sample_bytes = path.read_bytes()
        trace = dees(sample)
        exact, _ = exactify_ma(trace.automaton, 500)
        ns = NormalizedSeries(trace.automaton)
        drawn = tuple(pr_sample(ns, np.random.default_rng(7)) for _ in range(50))
        report = run_experiment(ExperimentConfig(
            "two_state_pda", (100,), (0, 1), metrics=("state_count", "l1_ball")))
        return (sample_bytes, trace.to_jsonl(), dumps_ma(trace.automaton),
                dumps_ma(exact), drawn, report.to_jsonl())
    first, second = stage_bytes(), stage_bytes()
    ok = first == second
    verdict(9, ok, "sample, trace, model, exactification, normalized draws "
                   "and report are bit-identical across runs")
    assert ok
