"""Residual-driven automaton learning over empirical samples.

The learner walks candidate prefixes of the sample in length-lex order.
For each frontier word v = ux it asks whether the empirical residual
v⁻¹P_S can be written as a convex-free affine combination of the
residuals of the states kept so far, up to an L∞ slack eps: the system

    |v⁻¹P_S(wΣ*) − Σ_u x_u · u⁻¹P_S(wΣ*)| ≤ eps   for every w ∈ fact(S)
    Σ_u x_u = 1

Only the rows w with vw or some uw a prefix in S constrain x; the
others read |0 − 0| ≤ eps and are never built.

If no solution exists, v becomes a new state; otherwise the solution
coefficients wire v's incoming transition onto the existing states.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact_linalg
from .automata import (FLOAT, RATIONAL, MultiplicityAutomaton,
                       absolute_convergence_certificate, is_pa, prefix_weight,
                       tail_sum, word_weight)
from .errors import ContractError, FeasibilityError, InputError
from .sampling import EMPTY_NODE, EmpiricalTrie, Sample, build_trie
from .simplex import OPTIMAL, solve_lp
from .words import EPSILON, Word

SOLVE_SLACK = 1e-9
SUPPORT_TOL = 1e-6
RANK_SV_TOL = 1e-8
RESIDUAL_MEMBER_TOL = 1e-12


@dataclass(frozen=True)
class FeasibilityRow:
    w: Word
    target: float
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class FeasibilitySystem:
    """The inequation system I(Q, v, S, eps) in matrix-ready form."""

    variables: tuple[Word, ...]
    rows: tuple[FeasibilityRow, ...]
    eps: float


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    solution: dict[Word, float] | None
    achieved_eps: float
    dual_bound: float
    diagnostic: str | None = None


def epsilon_schedule(n: int) -> float:
    """The learner's slack at sample size n: n^(-1/3)."""
    if n < 1:
        raise InputError("sample size must be at least 1")
    return float(n) ** (-1.0 / 3.0)


def build_system(trie: EmpiricalTrie, q_words, v: Word,
                 eps: float) -> FeasibilitySystem:
    """The rows of I(Q, v, S, eps) with support, in length-lex order of w.

    A row w ∈ fact(S) on which neither vw nor any uw is a prefix in S
    reads |0 − 0| ≤ eps and holds for every x, so only the rows below
    v or below some state are built.  They come from one walk, level by
    level, over the subtrees at v and at every state, all advanced
    together; a missing node is the empty sentinel, and a word is kept
    while any of its nodes exists.  Each level's words are extended in
    alphabet order, so the rows come out length-lex ordered.
    """
    variables = tuple(q_words)
    v_node = trie.node(v)
    if v_node is None or v_node.prefix_count == 0:
        raise ContractError(f"frontier word {v} has no mass in the sample")
    nodes = [v_node]
    for u in variables:
        node = trie.node(u)
        if node is None or node.prefix_count == 0:
            raise ContractError(f"state word {u} has no mass in the sample")
        nodes.append(node)
    bases = [node.prefix_count for node in nodes]
    symbols = trie.alphabet.symbols
    rows = []
    level = [(EPSILON, nodes)]
    while level:
        below = []
        for w, group in level:
            values = [nd.prefix_count / base for nd, base in zip(group, bases)]
            rows.append(FeasibilityRow(w, values[0], tuple(values[1:])))
            for s in symbols:
                children = [nd.children.get(s, EMPTY_NODE) for nd in group]
                if children.count(EMPTY_NODE) < len(children):
                    below.append((w + (s,), children))
        level = below
    return FeasibilitySystem(variables, tuple(rows), eps)


def solve_feasibility(sys: FeasibilitySystem) -> FeasibilityOutcome:
    """Minimize the L∞ violation t; feasible iff t ≤ eps (+1e-9 slack).

    With A the row coefficients and b the targets, the Chebyshev fit
    min t s.t. |Ax − b| ≤ t, Σx = 1 is solved through its dual

        max bᵀ(p − q) + μ  s.t.  Aᵀ(p − q) + μ·1 = 0,  1ᵀ(p + q) + s = 1,
                                 p, q, s ≥ 0,  μ free,

    whose k + 1 rows (k states) go to the deterministic two-phase
    simplex; x is minus the row prices of its optimal basis on the k
    state rows.  All-zero rows and repeated rows are dropped first: they
    change neither the optimum nor the largest residual.  `achieved_eps`
    is the largest residual of x over the rows, and `dual_bound` the
    dual objective, a lower bound on the optimum by weak duality.
    """
    k = len(sys.variables)
    distinct = dict.fromkeys((row.coeffs, row.target) for row in sys.rows
                             if row.target != 0 or any(row.coeffs))
    m = len(distinct)
    if m == 0:
        x = np.zeros(k)
        x[0] = 1.0
        achieved = dual_bound = 0.0
    else:
        a = np.array([coeffs for coeffs, _ in distinct], dtype=float)
        b = np.array([target for _, target in distinct], dtype=float)
        # columns: p (m), q (m), μ⁺, μ⁻, s
        lp = np.zeros((k + 1, 2 * m + 3))
        lp[:k, :m] = a.T
        lp[:k, m:2 * m] = -a.T
        lp[:k, 2 * m] = 1.0
        lp[:k, 2 * m + 1] = -1.0
        lp[k, :2 * m] = 1.0
        lp[k, 2 * m + 2] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        cost = np.concatenate([-b, b, [-1.0, 1.0, 0.0]])
        status, _, objective, prices = solve_lp(lp, rhs, cost)
        if status != OPTIMAL:
            return FeasibilityOutcome(False, None, math.inf, -math.inf,
                                      diagnostic=f"linear program ended {status}")
        x = -prices[:k]
        achieved = float(np.max(np.abs(a @ x - b)))
        dual_bound = -objective
    feasible = achieved <= sys.eps + SOLVE_SLACK
    solution = dict(zip(sys.variables, (float(v) for v in x))) if feasible else None
    return FeasibilityOutcome(feasible, solution, achieved, dual_bound)


@dataclass(frozen=True)
class DeesStep:
    index: int
    v: Word
    decision: str  # "new-state" | "combination"
    achieved_eps: float
    coefficients: dict[Word, float] | None


@dataclass(frozen=True)
class DeesTrace:
    steps: tuple[DeesStep, ...]
    automaton: MultiplicityAutomaton

    def to_jsonl(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(json.dumps({
                "step": s.index,
                "v": list(s.v),
                "decision": s.decision,
                "achieved_eps": s.achieved_eps,
                "coefficients": None if s.coefficients is None
                else {" ".join(u): c for u, c in s.coefficients.items()},
            }))
        return "\n".join(lines) + ("\n" if lines else "")


def dees(sample: Sample, eps_exponent: float = -1.0 / 3.0) -> DeesTrace:
    """Learn a prefixial MA from a sample; returns the trace with the automaton.

    The slack is sample.size ** eps_exponent; the default exponent -1/3
    shrinks it slowly enough that residual estimates settle first.
    """
    if sample.size == 0:
        raise InputError("cannot learn from an empty sample")
    alphabet = sample.alphabet
    trie = build_trie(sample)
    eps = float(sample.size) ** eps_exponent

    states: list[Word] = [EPSILON]
    state_pos = {EPSILON: 0}
    taus: dict[Word, float] = {EPSILON: trie.end_count(EPSILON) / trie.prefix_count(EPSILON)}
    phi: dict[tuple[Word, str, Word], float] = {}
    steps: list[DeesStep] = []

    frontier: list[tuple[tuple, Word]] = []
    seen: set[Word] = set()

    def push_children(u: Word) -> None:
        for x in alphabet.symbols:
            v = u + (x,)
            if v not in seen and trie.prefix_count(v) > 0:
                seen.add(v)
                heapq.heappush(frontier, (alphabet.lenlex_key(v), v))

    push_children(EPSILON)
    while frontier:
        _, v = heapq.heappop(frontier)
        u, x = v[:-1], v[-1]
        ratio = trie.prefix_count(v) / trie.prefix_count(u)
        outcome = solve_feasibility(build_system(trie, states, v, eps))
        if outcome.feasible:
            for w, alpha in outcome.solution.items():
                phi[(u, x, w)] = alpha * ratio
            decision = "combination"
        else:
            states.append(v)
            state_pos[v] = len(states) - 1
            taus[v] = trie.end_count(v) / trie.prefix_count(v)
            phi[(u, x, v)] = ratio
            push_children(v)
            decision = "new-state"
        steps.append(DeesStep(len(steps), v, decision, outcome.achieved_eps,
                              outcome.solution))

    n = len(states)
    iota = [1.0] + [0.0] * (n - 1)
    tau = [taus[u] for u in states]
    matrices = {x: [[0.0] * n for _ in range(n)] for x in alphabet.symbols}
    for (u, x, w), weight in phi.items():
        matrices[x][state_pos[u]][state_pos[w]] = weight
    automaton = MultiplicityAutomaton(alphabet, iota, tau, matrices,
                                      mode=FLOAT, labels=states)
    return DeesTrace(tuple(steps), automaton)


def structure_agrees(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> bool:
    """Same labeled states and the same nonzero patterns in ι, τ and every φ."""
    if a.labels is None or b.labels is None:
        raise ContractError("structure comparison needs prefixial-labeled automata")
    if set(a.labels) != set(b.labels) or a.alphabet.symbols != b.alphabet.symbols:
        return False

    def nonzero(m: MultiplicityAutomaton, v) -> bool:
        if m.mode == RATIONAL:
            return v != 0
        return abs(v) > SUPPORT_TOL

    pos_a = {w: i for i, w in enumerate(a.labels)}
    pos_b = {w: i for i, w in enumerate(b.labels)}
    for w in a.labels:
        i, j = pos_a[w], pos_b[w]
        if nonzero(a, a.iota[i]) != nonzero(b, b.iota[j]):
            return False
        if nonzero(a, a.tau[i]) != nonzero(b, b.tau[j]):
            return False
    for x in a.alphabet.symbols:
        ma, mb = a.matrices[x], b.matrices[x]
        for w1 in a.labels:
            for w2 in a.labels:
                if (nonzero(a, ma[pos_a[w1], pos_a[w2]])
                        != nonzero(b, mb[pos_b[w1], pos_b[w2]])):
                    return False
    return True


def _stochastic_gate(a: MultiplicityAutomaton) -> None:
    if is_pa(a).ok:
        return
    cert = absolute_convergence_certificate(a)
    total = float(tail_sum(a, 0)) if cert.certified else math.nan
    if cert.certified and abs(total - 1.0) <= 1e-6:
        return
    raise ContractError("reduced representation needs a stochastic language: "
                        f"certificate={cert.certified}, total mass={total}")


def prefixial_reduced_representation(a: MultiplicityAutomaton,
                                     test_depth: int = 4) -> MultiplicityAutomaton:
    """Canonical prefixial automaton of the language computed by `a`.

    Scans prefixes in length-lex order and keeps those whose residual
    series is linearly independent of the ones already kept; residuals
    are compared on the test words Σ^{≤test_depth}.  Exact arithmetic in
    rational mode, SVD rank testing in float mode.
    """
    _stochastic_gate(a)
    alphabet = a.alphabet
    rational = a.mode == RATIONAL

    def residual_mass(u: Word):
        return prefix_weight(a, u)

    def member(mass) -> bool:
        if rational:
            return mass != 0
        return abs(mass) > RESIDUAL_MEMBER_TOL

    test_words = list(alphabet.words_upto(test_depth))

    def residual_vector(u: Word) -> list:
        base = prefix_weight(a, u)
        return [prefix_weight(a, u + w) / base for w in test_words]

    states: list[Word] = [EPSILON]
    vectors: list[list] = [residual_vector(EPSILON)]
    taus: dict[Word, object] = {EPSILON: word_weight(a, EPSILON) / prefix_weight(a, EPSILON)}
    phi: dict[tuple[Word, str, Word], object] = {}

    frontier: list[tuple[tuple, Word]] = []

    def push_children(u: Word) -> None:
        for x in alphabet.symbols:
            v = u + (x,)
            if member(residual_mass(v)):
                heapq.heappush(frontier, (alphabet.lenlex_key(v), v))

    push_children(EPSILON)
    while frontier:
        _, v = heapq.heappop(frontier)
        u, x = v[:-1], v[-1]
        ratio = prefix_weight(a, v) / prefix_weight(a, u)
        vec = residual_vector(v)
        coeffs = _dependency(vectors, vec, rational)
        if coeffs is None:
            if len(states) >= a.n:
                cond = _stack_condition(vectors + [vec])
                raise ContractError(
                    f"residual space looks rank-deficient: candidate {v} appears "
                    f"independent beyond the {a.n}-dimensional bound "
                    f"(test-matrix condition number {cond:.3e}); "
                    "increase test_depth or check the input automaton")
            states.append(v)
            vectors.append(vec)
            taus[v] = word_weight(a, v) / prefix_weight(a, v)
            phi[(u, x, v)] = ratio
            push_children(v)
        else:
            for w, alpha in zip(states, coeffs):
                if alpha != 0:
                    phi[(u, x, w)] = alpha * ratio
    n = len(states)
    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0
    iota = [one] + [zero] * (n - 1)
    tau = [taus[u] for u in states]
    matrices = {x: [[zero] * n for _ in range(n)] for x in alphabet.symbols}
    pos = {w: i for i, w in enumerate(states)}
    for (u, x, w), weight in phi.items():
        matrices[x][pos[u]][pos[w]] = weight
    return MultiplicityAutomaton(alphabet, iota, tau, matrices,
                                 mode=a.mode, labels=states)


def _stack_condition(vectors: list[list]) -> float:
    m = np.array([[float(v) for v in vec] for vec in vectors])
    return float(np.linalg.cond(m))


def _dependency(basis: list[list], vec: list, rational: bool):
    """Coefficients writing vec over basis, or None when independent."""
    if rational:
        return exact_linalg.span_coefficients([list(b) for b in basis], list(vec))
    mat = np.array(basis, dtype=float)
    target = np.array(vec, dtype=float)
    stacked = np.vstack([mat, target])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if np.sum(sv > RANK_SV_TOL) > len(basis):
        return None
    coeffs, residuals, rank, _ = np.linalg.lstsq(mat.T, target, rcond=None)
    err = float(np.linalg.norm(mat.T @ coeffs - target))
    if err > SUPPORT_TOL:
        cond = _stack_condition(basis + [vec])
        raise FeasibilityError(
            f"residual dependency solve left error {err:.3e} "
            f"(condition number {cond:.3e}); test words may not separate the residuals")
    return [float(cc) for cc in coeffs]
