"""Multiplicity automata: representation, evaluation, matrix analysis.

An automaton assigns to every word x1…xk the weight
iota · M[x1] · … · M[xk] · tau.  Two arithmetic modes exist and never
mix inside one instance: "float" (float64 numpy arrays) and "rational"
(object arrays of fractions.Fraction, always exact).  Spectral queries
on rational automata go through a float conversion; everything else
stays in the automaton's own mode.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import DivergenceError, InputError
from .exact_linalg import span_coefficients
from .words import Alphabet, Word

FLOAT = "float"
RATIONAL = "rational"

# noise floors shared by the matrix-analysis operations
SPECTRAL_TOL = 1e-9
PA_TOL = 1e-9


def _coerce_weight(v, mode: str):
    if mode == RATIONAL:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise InputError(f"rational mode takes Fraction or int weights, got {type(v).__name__}")
    x = float(v)
    if not math.isfinite(x):
        raise InputError("float-mode weights must be finite")
    return x


def _weight_vector(values, mode: str) -> np.ndarray:
    vals = [_coerce_weight(v, mode) for v in values]
    if mode == RATIONAL:
        arr = np.empty(len(vals), dtype=object)
        arr[:] = vals
        return arr
    return np.array(vals, dtype=float)


def _weight_matrix(rows, mode: str, n: int) -> np.ndarray:
    rows = [list(r) for r in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError(f"matrix must be {n}x{n}")
    if mode == RATIONAL:
        arr = np.empty((n, n), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = _coerce_weight(v, mode)
        return arr
    arr = np.array([[_coerce_weight(v, mode) for v in row] for row in rows], dtype=float)
    return arr


class MultiplicityAutomaton:
    """A weighted automaton ⟨Σ, Q, φ, ι, τ⟩ in one arithmetic mode.

    Instances are immutable after construction; all operations on them
    are pure.  The only internal state is a cache of derived quantities
    (spectral radius, resolvent) whose entries are idempotent, so
    concurrent reads stay safe.
    """

    def __init__(self, alphabet: Alphabet, iota, tau, matrices, mode: str = FLOAT,
                 labels: Iterable[Word] | None = None):
        if mode not in (FLOAT, RATIONAL):
            raise InputError(f"unknown mode {mode!r}")
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(tuple(alphabet))
        self.alphabet = alphabet
        self.mode = mode
        self.iota = _weight_vector(iota, mode)
        self.tau = _weight_vector(tau, mode)
        n = len(self.iota)
        if len(self.tau) != n:
            raise InputError("iota and tau must have the same length")
        if set(matrices) != set(alphabet.symbols):
            raise InputError("matrices must cover exactly the alphabet symbols")
        self.matrices = {x: _weight_matrix(matrices[x], mode, n) for x in alphabet.symbols}
        if labels is None:
            self.labels = None
        else:
            self.labels = tuple(alphabet.word(w) for w in labels)
            if len(self.labels) != n:
                raise InputError("labels must name every state exactly once")
        for arr in [self.iota, self.tau, *self.matrices.values()]:
            arr.flags.writeable = False
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return len(self.iota)

    @property
    def is_zero_series(self) -> bool:
        """True for the 0-state automaton produced by trimming everything away."""
        return self.n == 0

    def zero(self):
        return Fraction(0) if self.mode == RATIONAL else 0.0

    def matrix(self, symbol: str) -> np.ndarray:
        if symbol not in self.matrices:
            raise InputError(f"symbol {symbol!r} not in alphabet {self.alphabet.symbols}")
        return self.matrices[symbol]

    def letter_sum(self) -> np.ndarray:
        """M with M[i,j] = φ(q_i, Σ, q_j), in the automaton's mode."""
        if "letter_sum" not in self._cache:
            m = None
            for x in self.alphabet.symbols:
                m = self.matrices[x] if m is None else m + self.matrices[x]
            self._cache["letter_sum"] = m
        return self._cache["letter_sum"]

    def to_float(self) -> "MultiplicityAutomaton":
        if self.mode == FLOAT:
            return self
        return MultiplicityAutomaton(
            self.alphabet,
            [float(v) for v in self.iota],
            [float(v) for v in self.tau],
            {x: self.matrices[x].astype(float) for x in self.alphabet.symbols},
            mode=FLOAT,
            labels=self.labels,
        )

    def __repr__(self):
        return (f"MultiplicityAutomaton(n={self.n}, alphabet={self.alphabet.symbols}, "
                f"mode={self.mode!r})")


def _finish(a: MultiplicityAutomaton, value):
    return float(value) if a.mode == FLOAT else value


def word_weight(a: MultiplicityAutomaton, w):
    """r_A(w) = ι · M[x1] ··· M[xk] · τ."""
    w = a.alphabet.word(w)
    if a.n == 0:
        return a.zero()
    row = a.iota
    for x in w:
        row = np.dot(row, a.matrices[x])
    return _finish(a, np.dot(row, a.tau))


def state_word_weight(a: MultiplicityAutomaton, q: int, w):
    """r_{A,q}(w): the word weight seen from state q alone."""
    if not 0 <= q < a.n:
        raise IndexError(f"state index {q} out of range for {a.n} states")
    w = a.alphabet.word(w)
    if a.mode == RATIONAL:
        row = np.empty(a.n, dtype=object)
        row[:] = [Fraction(0)] * a.n
        row[q] = Fraction(1)
    else:
        row = np.zeros(a.n)
        row[q] = 1.0
    for x in w:
        row = np.dot(row, a.matrices[x])
    return _finish(a, np.dot(row, a.tau))


def spectral_radius(m: np.ndarray) -> float:
    """ρ(M) via eigenvalue magnitudes of the dense float matrix."""
    if m.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(m.astype(float)))))


def power_norm_decay(m: np.ndarray, k: int) -> float:
    """Induced 2-norm of M^k (largest singular value)."""
    if k < 0:
        raise InputError("power must be nonnegative")
    if m.size == 0:
        return 0.0
    mf = m.astype(float)
    return float(np.linalg.norm(np.linalg.matrix_power(mf, k), 2))


def _rho(a: MultiplicityAutomaton) -> float:
    if "rho" not in a._cache:
        a._cache["rho"] = spectral_radius(a.letter_sum()) if a.n else 0.0
    return a._cache["rho"]


def _check_convergent(a: MultiplicityAutomaton):
    rho = _rho(a)
    if rho >= 1.0 - SPECTRAL_TOL:
        raise DivergenceError(f"letter-sum matrix has spectral radius {rho:.6f} >= 1; "
                              "infinite sums over suffixes do not converge")


def _resolvent_tau(a: MultiplicityAutomaton) -> np.ndarray:
    """(I − M)⁻¹ · τ in the automaton's mode; requires ρ(M) < 1."""
    if "resolvent_tau" not in a._cache:
        _check_convergent(a)
        m = a.letter_sum()
        if a.mode == RATIONAL:
            # the columns of I − M, so that (I − M)·s = τ
            columns = [[(Fraction(1) if i == j else Fraction(0)) - m[i, j] for i in range(a.n)]
                       for j in range(a.n)]
            sol = span_coefficients(columns, list(a.tau))
            s = np.empty(a.n, dtype=object)
            s[:] = sol
        else:
            s = np.linalg.solve(np.eye(a.n) - m, a.tau)
        s.flags.writeable = False
        a._cache["resolvent_tau"] = s
    return a._cache["resolvent_tau"]


def prefix_weight(a: MultiplicityAutomaton, u):
    """r_A(uΣ*) = (ι·M_u)·(I−M)⁻¹·τ, the absolutely convergent suffix mass at u."""
    u = a.alphabet.word(u)
    if a.n == 0:
        return a.zero()
    s = _resolvent_tau(a)
    row = a.iota
    for x in u:
        row = np.dot(row, a.matrices[x])
    return _finish(a, np.dot(row, s))


def tail_sum(a: MultiplicityAutomaton, k: int):
    """r_A(Σ^{≥k}) = ι·M^k·(I−M)⁻¹·τ."""
    if k < 0:
        raise InputError("tail index must be nonnegative")
    if a.n == 0:
        return a.zero()
    s = _resolvent_tau(a)
    m = a.letter_sum()
    row = a.iota
    for _ in range(k):
        row = np.dot(row, m)
    return _finish(a, np.dot(row, s))


@dataclass(frozen=True)
class PaCheck:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_pa(a: MultiplicityAutomaton) -> PaCheck:
    """Check the probabilistic-automaton conditions, naming each violation.

    Weights must lie in [0,1], ι must sum to 1, and every state must
    satisfy τ(q) + φ(q,Σ,Q) = 1 — exactly in rational mode, within 1e-9
    in float mode.
    """
    diags: list[str] = []
    tol = 0 if a.mode == RATIONAL else PA_TOL

    def in_range(v) -> bool:
        return -tol <= v and v <= 1 + tol

    for i, v in enumerate(a.iota):
        if not in_range(v):
            diags.append(f"iota[{i}] = {v} outside [0,1]")
    for i, v in enumerate(a.tau):
        if not in_range(v):
            diags.append(f"tau[{i}] = {v} outside [0,1]")
    for x in a.alphabet.symbols:
        m = a.matrices[x]
        for i in range(a.n):
            for j in range(a.n):
                if not in_range(m[i, j]):
                    diags.append(f"phi(q{i},{x},q{j}) = {m[i, j]} outside [0,1]")
    total = np.sum(a.iota) if a.n else a.zero()
    if abs(total - 1) > tol:
        diags.append(f"iota sums to {total}, not 1")
    if a.n:
        out = a.tau + np.sum(a.letter_sum(), axis=1)
        for i in range(a.n):
            if abs(out[i] - 1) > tol:
                diags.append(f"state q{i}: tau + out-mass = {out[i]}, not 1")
    return PaCheck(not diags, tuple(diags))


def trim(a: MultiplicityAutomaton) -> MultiplicityAutomaton:
    """Drop states that are not both accessible and co-accessible in supp(A).

    Preserves r_A on every word.  If nothing survives, the 0-state
    zero-series automaton is returned (see is_zero_series).
    """
    n = a.n
    fwd = {x: [[j for j in range(n) if a.matrices[x][i, j] != 0] for i in range(n)]
           for x in a.alphabet.symbols}
    accessible = set(i for i in range(n) if a.iota[i] != 0)
    frontier = list(accessible)
    while frontier:
        i = frontier.pop()
        for x in a.alphabet.symbols:
            for j in fwd[x][i]:
                if j not in accessible:
                    accessible.add(j)
                    frontier.append(j)
    coaccessible = set(i for i in range(n) if a.tau[i] != 0)
    frontier = list(coaccessible)
    back = {x: [[i for i in range(n) if a.matrices[x][i, j] != 0] for j in range(n)]
            for x in a.alphabet.symbols}
    while frontier:
        j = frontier.pop()
        for x in a.alphabet.symbols:
            for i in back[x][j]:
                if i not in coaccessible:
                    coaccessible.add(i)
                    frontier.append(i)
    keep = sorted(accessible & coaccessible)
    if len(keep) == n:
        return a
    idx = np.array(keep, dtype=int)
    labels = None if a.labels is None else [a.labels[i] for i in keep]
    if not keep:
        return MultiplicityAutomaton(a.alphabet, [], [],
                                     {x: [] for x in a.alphabet.symbols},
                                     mode=a.mode, labels=labels)
    return MultiplicityAutomaton(
        a.alphabet,
        [a.iota[i] for i in keep],
        [a.tau[i] for i in keep],
        {x: a.matrices[x][np.ix_(idx, idx)] for x in a.alphabet.symbols},
        mode=a.mode,
        labels=labels,
    )


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Sufficient (not necessary) absolute-convergence check.

    certified=True guarantees Σ_w |r_A(w)| ≤ abs_mass_bound < ∞; a False
    result is inconclusive.
    """
    certified: bool
    rho_abs: float
    abs_mass_bound: float


def abs_letter_sum(a: MultiplicityAutomaton) -> np.ndarray:
    """M_abs[i,j] = Σ_x |φ(q_i,x,q_j)| as a float matrix."""
    m = np.zeros((a.n, a.n))
    for x in a.alphabet.symbols:
        m += np.abs(a.matrices[x].astype(float))
    return m


def absolute_convergence_certificate(a: MultiplicityAutomaton) -> ConvergenceCertificate:
    if a.n == 0:
        return ConvergenceCertificate(True, 0.0, 0.0)
    m_abs = abs_letter_sum(a)
    rho = spectral_radius(m_abs)
    if rho >= 1.0 - SPECTRAL_TOL:
        return ConvergenceCertificate(False, rho, math.inf)
    iota = np.abs(a.iota.astype(float))
    tau = np.abs(a.tau.astype(float))
    bound = float(iota @ np.linalg.solve(np.eye(a.n) - m_abs, tau))
    return ConvergenceCertificate(True, rho, bound)


def build_a_alpha(alpha: float, lambda0: float, lambda1: float, lambda2: float) -> MultiplicityAutomaton:
    """Three-state unary automaton with a damped rotation block.

    ι=(λ0,λ1,λ2), τ=(1,1,1), and the single letter matrix is the block
    sum of (1/2)·rotation(alpha) and the scalar 1/2, giving the state
    series r_{q0}(aⁿ)=(cos nα − sin nα)/2ⁿ, r_{q1}(aⁿ)=(cos nα + sin nα)/2ⁿ
    and r_{q2}(aⁿ)=1/2ⁿ.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    ma = [[c / 2, -s / 2, 0.0], [s / 2, c / 2, 0.0], [0.0, 0.0, 0.5]]
    return MultiplicityAutomaton(Alphabet(("a",)), [lambda0, lambda1, lambda2],
                                 [1.0, 1.0, 1.0], {"a": ma}, mode=FLOAT)


def equal_ma(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> bool:
    """Structural equality: same alphabet, mode, labels and identical weights."""
    if (a.alphabet.symbols != b.alphabet.symbols or a.mode != b.mode
            or a.n != b.n or a.labels != b.labels):
        return False
    if any(a.iota[i] != b.iota[i] or a.tau[i] != b.tau[i] for i in range(a.n)):
        return False
    for x in a.alphabet.symbols:
        if any(a.matrices[x][i, j] != b.matrices[x][i, j]
               for i in range(a.n) for j in range(a.n)):
            return False
    return True


# ---------------------------------------------------------------------------
# text format


def _weight_to_doc(v, mode: str):
    if mode == RATIONAL:
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def _weight_from_doc(v, mode: str):
    if mode == RATIONAL:
        if not isinstance(v, str):
            raise InputError(f"rational weights must be 'p/q' strings, got {v!r}")
        try:
            return Fraction(v)
        except ZeroDivisionError as exc:
            raise InputError(f"rational weight {v!r} has a zero denominator") from exc
    if isinstance(v, (str, bool)):
        raise InputError(f"float weights must be numbers, got {v!r}")
    return float(v)


def ma_to_document(a: MultiplicityAutomaton) -> dict:
    doc = {
        "alphabet": list(a.alphabet.symbols),
        "mode": a.mode,
        "n": a.n,
        "iota": [_weight_to_doc(v, a.mode) for v in a.iota],
        "tau": [_weight_to_doc(v, a.mode) for v in a.tau],
        "matrices": {x: [[_weight_to_doc(a.matrices[x][i, j], a.mode) for j in range(a.n)]
                         for i in range(a.n)]
                     for x in a.alphabet.symbols},
    }
    if a.labels is not None:
        doc["labels"] = [list(w) for w in a.labels]
    return doc


def ma_from_document(doc: dict) -> MultiplicityAutomaton:
    try:
        alphabet = Alphabet(tuple(doc["alphabet"]))
        mode = doc["mode"]
        if mode not in (FLOAT, RATIONAL):
            raise InputError(f"unknown mode {mode!r}")
        n = int(doc["n"])
        iota = [_weight_from_doc(v, mode) for v in doc["iota"]]
        tau = [_weight_from_doc(v, mode) for v in doc["tau"]]
        matrices = {x: [[_weight_from_doc(v, mode) for v in row] for row in doc["matrices"][x]]
                    for x in doc["matrices"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed automaton document: {exc}") from exc
    if len(iota) != n:
        raise InputError("n does not match iota length")
    labels = doc.get("labels")
    if labels is not None:
        labels = [tuple(w) for w in labels]
    return MultiplicityAutomaton(alphabet, iota, tau, matrices, mode=mode, labels=labels)


def dumps_ma(a: MultiplicityAutomaton) -> str:
    return json.dumps(ma_to_document(a), indent=2) + "\n"


def loads_ma(text: str) -> MultiplicityAutomaton:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not a valid automaton document: {exc}") from exc
    return ma_from_document(doc)


def save_ma(a: MultiplicityAutomaton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_ma(a))


def load_ma(path) -> MultiplicityAutomaton:
    with open(path, encoding="utf-8") as fh:
        return loads_ma(fh.read())
