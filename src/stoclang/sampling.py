"""Sampling from probabilistic automata and empirical residual queries.

Generative semantics: a start state is drawn with probability ι(q), then
the walk either stops (probability τ(q)) or emits a letter and moves
(probability φ(q,x,q')).  All randomness comes from numpy's PCG64
generator (np.random.default_rng), which is documented, 64-bit seeded
and portable; one seed, one automaton and one size always reproduce the
same sample bit for bit.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .automata import MultiplicityAutomaton, is_pa
from .errors import ContractError, InputError, UndefinedResidualError
from .words import Alphabet, Word, format_word, parse_word

# a valid PA halts with probability 1; the cap only guards near-critical ones
MAX_WORD_LEN = 10 ** 6


@dataclass(frozen=True)
class Sample:
    """A finite sequence (multiset) of words over one alphabet."""

    alphabet: Alphabet
    words: tuple[Word, ...]

    def __post_init__(self):
        index = self.alphabet._index
        for w in self.words:
            for s in w:
                if s not in index:
                    raise InputError(f"sample word {w} uses symbol {s!r} outside the alphabet")

    @property
    def size(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return len(self.words)


class _EventTables:
    """Per-state cumulative event tables: event 0 stops, others emit."""

    def __init__(self, a: MultiplicityAutomaton):
        self.cum_iota = np.cumsum(a.iota.astype(float))
        self.cum_iota[-1] = max(self.cum_iota[-1], 1.0)
        self.cum = []
        self.sym = []
        self.dst = []
        for q in range(a.n):
            probs = [float(a.tau[q])]
            syms: list[str] = []
            dsts: list[int] = []
            for x in a.alphabet.symbols:
                col = a.matrices[x][q]
                for j in range(a.n):
                    p = float(col[j])
                    if p != 0.0:
                        probs.append(p)
                        syms.append(x)
                        dsts.append(j)
            cum = np.cumsum(probs)
            cum[-1] = max(cum[-1], 1.0)
            self.cum.append(cum)
            self.sym.append(syms)
            self.dst.append(np.array(dsts, dtype=int) if dsts else np.zeros(0, dtype=int))


def _require_pa(a: MultiplicityAutomaton) -> None:
    if "pa_check" not in a._cache:
        a._cache["pa_check"] = is_pa(a)
    check = a._cache["pa_check"]
    if not check.ok:
        raise ContractError("sampling requires a probabilistic automaton; violations: "
                            + "; ".join(check.diagnostics[:5]))


def _tables(a: MultiplicityAutomaton) -> _EventTables:
    if "event_tables" not in a._cache:
        a._cache["event_tables"] = _EventTables(a)
    return a._cache["event_tables"]


def sample_word(a: MultiplicityAutomaton, seed_state) -> Word:
    """Draw one word.  seed_state is an int seed or a np.random.Generator."""
    _require_pa(a)
    rng = seed_state if isinstance(seed_state, np.random.Generator) else np.random.default_rng(seed_state)
    t = _tables(a)
    q = int(np.searchsorted(t.cum_iota, rng.random(), side="right"))
    out: list[str] = []
    for _ in range(MAX_WORD_LEN):
        ev = int(np.searchsorted(t.cum[q], rng.random(), side="right"))
        if ev == 0:
            return tuple(out)
        out.append(t.sym[q][ev - 1])
        q = int(t.dst[q][ev - 1])
    raise ContractError(f"sampled word exceeded the {MAX_WORD_LEN}-symbol cap; "
                        "the automaton is too close to critical to sample")


def draw_sample(a: MultiplicityAutomaton, n: int, seed) -> Sample:
    """Draw n i.i.d. words; deterministic given (a, n, seed).

    Words advance in lockstep (one batch of uniforms per step over the
    still-running words), which keeps the draw order fixed and the whole
    procedure reproducible.
    """
    _require_pa(a)
    if n < 0:
        raise InputError("sample size must be nonnegative")
    if n == 0:
        return Sample(a.alphabet, ())
    rng = np.random.default_rng(seed)
    t = _tables(a)
    st = np.searchsorted(t.cum_iota, rng.random(n), side="right").astype(int)
    alive = np.arange(n)
    parts: list[list[str]] = [[] for _ in range(n)]
    for _ in range(MAX_WORD_LEN):
        if alive.size == 0:
            break
        u = rng.random(alive.size)
        stop = np.zeros(alive.size, dtype=bool)
        next_state = st.copy()
        for q in range(a.n):
            g = np.nonzero(st == q)[0]
            if g.size == 0:
                continue
            ev = np.searchsorted(t.cum[q], u[g], side="right")
            stop[g[ev == 0]] = True
            emit = g[ev > 0]
            if emit.size:
                chosen = ev[ev > 0] - 1
                next_state[emit] = t.dst[q][chosen]
                syms = t.sym[q]
                for widx, c in zip(alive[emit], chosen):
                    parts[widx].append(syms[c])
        keep = ~stop
        alive = alive[keep]
        st = next_state[keep]
    if alive.size:
        raise ContractError(f"{alive.size} words exceeded the {MAX_WORD_LEN}-symbol cap; "
                            "the automaton is too close to critical to sample")
    return Sample(a.alphabet, tuple(tuple(p) for p in parts))


class _Node:
    __slots__ = ("prefix_count", "end_count", "children")

    def __init__(self):
        self.prefix_count = 0
        self.end_count = 0
        self.children: dict[str, _Node] = {}


# the node below every missing child: no count and no children
EMPTY_NODE = _Node()


class EmpiricalTrie:
    """Prefix-count tree over a sample.

    Every node u stores prefix_count(u) = #{w ∈ S : u ≤ w} and
    end_count(u) = #{w ∈ S : w = u}, so P_S(u) = end_count/total and
    P_S(uΣ*) = prefix_count/total.  Immutable after construction.
    """

    def __init__(self, alphabet: Alphabet, words: Iterable[Word]):
        self.alphabet = alphabet
        self.root = _Node()
        total = 0
        for w, c in Counter(words).items():
            total += c
            node = self.root
            node.prefix_count += c
            for s in w:
                node = node.children.setdefault(s, _Node())
                node.prefix_count += c
            node.end_count += c
        self.total = total

    def node(self, u: Word) -> _Node | None:
        node = self.root
        for s in u:
            node = node.children.get(s)
            if node is None:
                return None
        return node

    def prefix_count(self, u: Word) -> int:
        node = self.node(u)
        return 0 if node is None else node.prefix_count

    def end_count(self, u: Word) -> int:
        node = self.node(u)
        return 0 if node is None else node.end_count

    def p_prefix(self, u: Word) -> float:
        """P_S(uΣ*)."""
        return self.prefix_count(u) / self.total


def build_trie(sample: Sample) -> EmpiricalTrie:
    return EmpiricalTrie(sample.alphabet, sample.words)


def empirical_residual_prefix(trie: EmpiricalTrie, u: Word, w: Word) -> float:
    """u⁻¹P_S(wΣ*) = prefix_count(uw) / prefix_count(u)."""
    base = trie.node(u)
    if base is None or base.prefix_count == 0:
        raise UndefinedResidualError(f"prefix {u} has no mass in the sample")
    node = base
    for s in w:
        node = node.children.get(s)
        if node is None:
            return 0.0
    return node.prefix_count / base.prefix_count


# ---------------------------------------------------------------------------
# sample file format: header line, then one word per line (empty line = ε)


def save_sample(sample: Sample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#alphabet: " + " ".join(sample.alphabet.symbols) + "\n")
        for w in sample.words:
            fh.write(format_word(w) + "\n")


def load_sample(path) -> Sample:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.endswith("\n"):
        text = text[:-1]
    lines = text.split("\n")
    if not lines or not lines[0].startswith("#alphabet:"):
        raise InputError("sample file must start with a '#alphabet: ...' header line")
    alphabet = Alphabet(tuple(lines[0][len("#alphabet:"):].split()))
    words = tuple(parse_word(line) for line in lines[1:])
    return Sample(alphabet, words)
