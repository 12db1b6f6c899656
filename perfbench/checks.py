"""Output checks computed apart from stoclang.

Each check takes an operation's output and returns a list of problems;
an empty list means the output passed. The checks recount from raw
words, multiply matrices themselves and solve LPs with HiGHS (through
scipy, the repository's test oracle), so a fault in stoclang's trie,
simplex, rounding or normalization shows as a problem here rather than
being checked against itself.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

# a check on a count drawn at random fails only beyond this many standard
# deviations: about 2e-9 per comparison, so no false alarm over all the
# comparisons a set of runs makes
Z_BOUND = 6.0
# slack on "the LP optimum is at most eps": HiGHS and the learner's simplex
# each solve to about 1e-9, and the learner accepts up to eps + 1e-9
LP_TOL = 1e-7
ROW_TOL = 1e-9
FLOAT_TOL = 1e-12
MASS_TOL = 1e-10


def binomial_ok(count: int, n: int, p: float) -> bool:
    if not 0.0 <= p <= 1.0:
        return False
    return abs(count - n * p) <= Z_BOUND * math.sqrt(n * p * (1.0 - p)) + 1.0


def lenlex(word, index) -> tuple:
    return (len(word), tuple(index[s] for s in word))


def ball_l1(h, t, symbols, radius: int) -> float:
    """Σ_{|w|≤radius} |r_h(w) − r_t(w)|, level by level over all words."""
    total = 0.0
    rows_h = np.asarray(h.iota, dtype=float)[None, :]
    rows_t = np.asarray(t.iota, dtype=float)[None, :]
    for level in range(radius + 1):
        total += float(np.abs(rows_h @ np.asarray(h.tau, dtype=float)
                              - rows_t @ np.asarray(t.tau, dtype=float)).sum())
        if level < radius:
            rows_h = np.vstack([rows_h @ np.asarray(h.matrices[x], dtype=float)
                                for x in symbols])
            rows_t = np.vstack([rows_t @ np.asarray(t.matrices[x], dtype=float)
                                for x in symbols])
    return total


# ---------------------------------------------------------------------------
# learn_lp


class RawCounts:
    """Prefix and end counts and fact(S), counted from the raw sample words."""

    def __init__(self, words, symbols):
        ends = Counter(words)
        prefixes: Counter = Counter()
        factors: set = set()
        for w, c in ends.items():
            for i in range(len(w) + 1):
                prefixes[w[:i]] += c
                for j in range(i, len(w) + 1):
                    factors.add(w[i:j])
        self.ends = ends
        self.prefixes = prefixes
        self.factors = sorted(factors)
        self.symbols = tuple(symbols)

    def residual(self, u, w) -> float:
        """u⁻¹P_S(wΣ*) = #prefix(uw) / #prefix(u)."""
        return self.prefixes.get(u + w, 0) / self.prefixes[u]


def chebyshev_optimum(rows_a: np.ndarray, rows_b: np.ndarray) -> float:
    """min t over |A x − b| ≤ t, Σ x = 1, x free, solved by HiGHS."""
    from scipy.optimize import linprog

    m, k = rows_a.shape
    minus_t = -np.ones((m, 1))
    a_ub = np.vstack([np.hstack([rows_a, minus_t]), np.hstack([-rows_a, minus_t])])
    b_ub = np.concatenate([rows_b, -rows_b])
    c = np.zeros(k + 1)
    c[k] = 1.0
    a_eq = np.hstack([np.ones((1, k)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def check_dees(raw: RawCounts, trace, eps: float) -> list[str]:
    """Replay every DeesStep on systems rebuilt from raw counts.

    A step is "combination" exactly when the rebuilt system's Chebyshev
    optimum is at most eps; a combination's coefficients sum to 1 and
    meet every rebuilt row within eps. The learned automaton must hold
    the τ and φ these decisions imply, with τ(u) = #end(u)/#prefix(u).
    """
    problems: list[str] = []
    index = {s: i for i, s in enumerate(raw.symbols)}
    states = [()]
    tau_expected = {(): raw.ends.get((), 0) / raw.prefixes[()]}
    phi: dict = {}
    frontier = {(x,) for x in raw.symbols if raw.prefixes.get((x,), 0) > 0}
    last_key = None
    for step in trace.steps:
        v = tuple(step.v)
        u, x = v[:-1], v[-1]
        if v not in frontier:
            problems.append(f"step {step.index}: {v} is not an undecided child of a state")
            continue
        frontier.discard(v)
        key = lenlex(v, index)
        if last_key is not None and key < last_key:
            problems.append(f"step {step.index}: {v} out of length-lex order")
        last_key = key
        rows_a = np.array([[raw.residual(q, w) for q in states] for w in raw.factors])
        rows_b = np.array([raw.residual(v, w) for w in raw.factors])
        optimum = chebyshev_optimum(rows_a, rows_b)
        ratio = raw.prefixes[v] / raw.prefixes[u]
        if step.decision == "combination":
            if optimum > eps + LP_TOL:
                problems.append(f"step {step.index}: combination at {v} but the "
                                f"optimum {optimum:.9g} exceeds eps {eps:.9g}")
            coeffs = step.coefficients or {}
            if set(coeffs) != set(states):
                problems.append(f"step {step.index}: coefficients name {sorted(coeffs)}, "
                                f"states are {states}")
                continue
            x_vec = np.array([coeffs[q] for q in states])
            if abs(x_vec.sum() - 1.0) > ROW_TOL:
                problems.append(f"step {step.index}: coefficients sum to {x_vec.sum():.12g}")
            worst = float(np.max(np.abs(rows_a @ x_vec - rows_b)))
            if worst > eps + ROW_TOL:
                problems.append(f"step {step.index}: coefficients miss a row by "
                                f"{worst:.9g} > eps {eps:.9g}")
            for q in states:
                if coeffs[q] != 0.0:
                    phi[(u, x, q)] = coeffs[q] * ratio
        elif step.decision == "new-state":
            if optimum <= eps - LP_TOL:
                problems.append(f"step {step.index}: new state at {v} but the "
                                f"optimum {optimum:.9g} is within eps {eps:.9g}")
            states.append(v)
            tau_expected[v] = raw.ends.get(v, 0) / raw.prefixes[v]
            phi[(u, x, v)] = ratio
            frontier.update(v + (y,) for y in raw.symbols
                            if raw.prefixes.get(v + (y,), 0) > 0)
        else:
            problems.append(f"step {step.index}: unknown decision {step.decision!r}")
    if frontier:
        problems.append(f"undecided frontier words: {sorted(frontier)[:5]}")

    a = trace.automaton
    labels = [tuple(w) for w in (a.labels or ())]
    if labels != states:
        return problems + [f"automaton states {labels} differ from the steps' {states}"]
    pos = {q: i for i, q in enumerate(states)}
    if list(np.asarray(a.iota, dtype=float)) != [1.0] + [0.0] * (len(states) - 1):
        problems.append("iota is not the indicator of the empty word")
    for q, want in tau_expected.items():
        got = float(a.tau[pos[q]])
        if abs(got - want) > FLOAT_TOL:
            problems.append(f"tau{q} = {got!r}, counts give {want!r}")
    for x in raw.symbols:
        got = np.asarray(a.matrices[x], dtype=float)
        want = np.zeros_like(got)
        for (u, y, q), weight in phi.items():
            if y == x:
                want[pos[u], pos[q]] = weight
        if np.max(np.abs(got - want), initial=0.0) > FLOAT_TOL:
            i, j = np.unravel_index(np.argmax(np.abs(got - want)), got.shape)
            problems.append(f"phi[{x}][{states[i]}][{states[j]}] = {got[i, j]!r}, "
                            f"steps give {want[i, j]!r}")
    return problems


# ---------------------------------------------------------------------------
# identify_unary


def unary_length_problems(words, probability, n: int) -> list[str]:
    """Length histogram against P(aᵏ) for every k with n·P(aᵏ) ≥ 5, plus the tail."""
    problems = []
    if len(words) != n:
        problems.append(f"sample has {len(words)} words, asked for {n}")
    if any(s != "a" for w in set(words) for s in w):
        problems.append("sample uses a letter other than 'a'")
    hist = Counter(len(w) for w in words)
    k, covered = 0, 0.0
    while n * float(probability(k)) >= 5:
        p = float(probability(k))
        if not binomial_ok(hist.get(k, 0), len(words), p):
            problems.append(f"#a^{k} = {hist.get(k, 0)}, expected {len(words) * p:.1f}")
        covered += p
        k += 1
    tail = sum(c for length, c in hist.items() if length >= k)
    if not binomial_ok(tail, len(words), max(0.0, 1.0 - covered)):
        problems.append(f"#(length ≥ {k}) = {tail}, expected {len(words) * (1 - covered):.1f}")
    return problems


def exact_unary_problems(exact, probability, depth: int = 30) -> list[str]:
    """ι·M_aᵏ·τ in Fraction arithmetic equals P(aᵏ) for k ≤ depth."""
    try:
        iota = [Fraction(v) for v in exact.iota]
        tau = [Fraction(v) for v in exact.tau]
        mat = [[Fraction(v) for v in row] for row in exact.matrices["a"]]
    except (TypeError, ValueError) as exc:
        return [f"exact automaton has a non-rational weight: {exc}"]
    problems = []
    row = iota
    for k in range(depth + 1):
        got = sum((r * t for r, t in zip(row, tau)), Fraction(0))
        if got != probability(k):
            problems.append(f"exact weight of a^{k} is {got}, closed form gives {probability(k)}")
            break
        row = [sum((row[i] * mat[i][j] for i in range(len(row))), Fraction(0))
               for j in range(len(tau))]
    return problems


# ---------------------------------------------------------------------------
# normalize_draw


def normalization_problems(ns, base, words, bracket) -> list[str]:
    """Mass recursion, λ range and dominance at every materialized node,
    the truncation bracket, the drawn words' support and first-letter
    frequencies. p_r and λ are read through stoclang's pr_eval,
    pr_prefix_mass and lambda_at; r(u) is this module's own ι·M_u·τ."""
    from stoclang import normalize as api

    problems: list[str] = []
    symbols = tuple(base.alphabet.symbols)
    mats = {x: np.asarray(base.matrices[x], dtype=float) for x in symbols}
    tau = np.asarray(base.tau, dtype=float)
    rows = {(): np.asarray(base.iota, dtype=float)}
    for u in sorted(ns.memo, key=len):
        if u not in rows:
            parent = rows.get(u[:-1])
            rows[u] = None if parent is None else parent @ mats[u[-1]]
        if rows[u] is None:
            problems.append(f"node {u} is materialized without its parent")
            continue
        mass = float(api.pr_prefix_mass(ns, u))
        here = float(api.pr_eval(ns, u))
        kids = sum(float(api.pr_prefix_mass(ns, u + (x,))) for x in symbols)
        if abs(mass - here - kids) > MASS_TOL:
            problems.append(f"mass at {u}: {mass!r} != {here!r} + {kids!r}")
        lam = float(api.lambda_at(ns, u))
        if not 0.0 < lam <= 1.0 + FLOAT_TOL:
            problems.append(f"lambda at {u} is {lam!r}, outside (0, 1]")
        r = float(rows[u] @ tau)
        if here < 0.0 or (r > 0.0 and here > r + FLOAT_TOL):
            problems.append(f"p_r{u} = {here!r} against r = {r!r}")
        if len(problems) > 10:
            return problems

    # truncation bracket: own Σ|r(w)| to depth 10 is the lower end, and the
    # sum to depth 14 stays inside; the p_r mass beyond depth 10 fits the gap
    lower, upper = bracket["abs_mass_lower"], bracket["abs_mass_upper"]
    level = np.asarray(base.iota, dtype=float)[None, :]
    partial = 0.0
    for depth in range(15):
        partial += float(np.abs(level @ tau).sum())
        if depth == 10 and abs(partial - lower) > 1e-9 * max(1.0, partial):
            problems.append(f"abs_mass_lower {lower!r}, own sum to depth 10 {partial!r}")
        if depth < 14:
            level = np.vstack([level @ mats[x] for x in symbols])
    if not lower <= partial <= upper + 1e-9:
        problems.append(f"own sum to depth 14 {partial!r} outside [{lower!r}, {upper!r}]")
    if not -upper <= bracket["neg_total"] <= 0.0:
        problems.append(f"neg_total {bracket['neg_total']!r} outside [-{upper!r}, 0]")
    covered, frontier = 0.0, [()]
    for _ in range(11):
        covered += sum(float(api.pr_eval(ns, u)) for u in frontier)
        frontier = [u + (x,) for u in frontier for x in symbols
                    if float(api.pr_prefix_mass(ns, u + (x,))) > 0.0]
    if 1.0 - covered > upper - lower + 1e-9:
        problems.append(f"p_r mass beyond depth 10 is {1 - covered!r}, "
                        f"the bracket allows {upper - lower!r}")

    drawn = Counter(words)
    for w in drawn:
        if any(s not in mats for s in w) or float(api.pr_eval(ns, w)) <= 0.0:
            problems.append(f"drawn word {w} is outside the support of p_r")
            break
    n = len(words)
    if not binomial_ok(drawn.get((), 0), n, float(api.pr_eval(ns, ()))):
        problems.append(f"#ε = {drawn.get((), 0)} of {n}, p_r(ε) = {float(api.pr_eval(ns, ())):.6f}")
    first = Counter(w[0] for w in words if w)
    for x in symbols:
        p = float(api.pr_prefix_mass(ns, (x,)))
        if not binomial_ok(first.get(x, 0), n, p):
            problems.append(f"#{x}Σ* = {first.get(x, 0)} of {n}, p_r({x}Σ*) = {p:.6f}")
    return problems
