"""The three workloads: their inputs, one operation each, and its checks.

A workload builds a fixed list of inputs in set-up; a run makes whole
passes over that list, one operation after the other in one thread
(a closed loop with one client). `op` is the timed part; `record`
(traced run only) and `check` run after it and are not timed.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from stoclang import (Alphabet, MultiplicityAutomaton, NormalizedSeries, dees,
                      draw_sample, equal_ma, exactify_ma, fixture,
                      neg_total_and_abs_mass, pr_sample,
                      prefixial_reduced_representation, random_certified_ma,
                      random_pa)
from stoclang.experiment import l1_on_ball

import checks
from tracing import NullTracer, settle


class LearnLp:
    """dees on pre-drawn samples of a 3-state, 2-letter random PA, then l1_on_ball.

    The panel of sample seeds is fixed and does not follow --seed: one
    dees call takes 1.3 to 8.4 s depending on the sample (an 11-state
    overshoot on sample seed 2), so a seed-drawn panel small enough for
    a run moves words_per_s by 15-25 % from seed to seed.
    """

    name = "learn_lp"
    n = 30_000
    # ten samples: with fewer, the median operation moves with the machine's
    # speed over the two or three operations in the middle
    sample_seeds = tuple(range(10))
    ball_radius = 6
    # scipy's import and HiGHS would add to the measured peak memory, so the
    # checks wait until the timed passes are over; outputs here are small
    check_now = False

    def __init__(self):
        self.target = random_pa(np.random.default_rng(1), 3, "ab", min_stop=0.1)
        self._raw: dict = {}

    def setup(self, seed: int, tr) -> list:
        inputs = []
        for sample_seed in self.sample_seeds:
            with tr.span("setup.draw"):
                with tr.span("sampling.draw_sample"):
                    sample = draw_sample(self.target, self.n, sample_seed)
            if tr.enabled:
                tr.note("sampling.letters", sum(map(len, sample.words)))
            inputs.append(sample)
        return inputs

    def warmup(self, inputs) -> None:
        small = draw_sample(self.target, 2_000, 10 ** 6)
        l1_on_ball(dees(small).automaton, self.target, self.ball_radius)

    def prepare(self, sample):
        return sample

    def words(self, sample) -> int:
        return sample.size

    def op(self, sample, tr):
        with tr.span("learner.dees"):
            trace = dees(sample)
        with tr.span("experiment.l1_on_ball"):
            l1 = l1_on_ball(trace.automaton, self.target, self.ball_radius)
        return trace, l1

    def record(self, sample, out, tr) -> None:
        settle(tr)
        tr.note("learner.states", out[0].automaton.n)

    def check(self, sample, out) -> list[str]:
        trace, l1 = out
        if id(sample) not in self._raw:
            self._raw[id(sample)] = checks.RawCounts(sample.words, sample.alphabet.symbols)
        problems = checks.check_dees(self._raw[id(sample)], trace,
                                     float(sample.size) ** (-1.0 / 3.0))
        own = checks.ball_l1(trace.automaton, self.target, sample.alphabet.symbols,
                             self.ball_radius)
        if abs(own - l1) > 1e-9 * max(1.0, own):
            problems.append(f"l1_on_ball gave {l1!r}, own sum {own!r}")
        return problems


def _half_loop_p(k: int) -> Fraction:
    return Fraction(1, 2 ** (k + 1))


def _quarter_third_p(k: int) -> Fraction:
    if k == 0:
        return Fraction(1, 4)
    return Fraction(3, 4) * Fraction(1, 3) ** (k - 1) * Fraction(2, 3)


class IdentifyUnary:
    """draw_sample at n = 10⁵, dees, exactify_ma, compare with the reduced target.

    Targets alternate between half_loop and the two-state target with
    weights 1/4, 3/4, 2/3, 1/3; every denominator is at most 4, the
    largest the n^(-1/4) rounding admits at n = 10⁵. Sample seeds follow
    --seed.
    """

    name = "identify_unary"
    n = 100_000
    samples_per_target = 20
    check_now = True

    def setup(self, seed: int, tr) -> list:
        quarter_third = MultiplicityAutomaton(
            Alphabet(("a",)), [1, 0], [Fraction(1, 4), Fraction(2, 3)],
            {"a": [[0, Fraction(3, 4)], [0, Fraction(1, 3)]]}, mode="rational")
        targets = [(fixture("half_loop"), _half_loop_p), (quarter_third, _quarter_third_p)]
        goals = [prefixial_reduced_representation(t) for t, _ in targets]
        return [(targets[j][0], goals[j], targets[j][1], seed * 1000 + i)
                for i in range(self.samples_per_target) for j in range(2)]

    def warmup(self, inputs) -> None:
        for inp in inputs[:2]:
            self.op(inp, _NO_TRACE)

    def prepare(self, inp):
        return inp

    def words(self, inp) -> int:
        return self.n

    def op(self, inp, tr):
        target, goal, _, sample_seed = inp
        with tr.span("sampling.draw_sample"):
            sample = draw_sample(target, self.n, sample_seed)
        with tr.span("learner.dees"):
            learned = dees(sample).automaton
        with tr.span("rationalize.exactify_ma"):
            exact, report = exactify_ma(learned, self.n)
        identified = report.complete and equal_ma(exact, goal)
        return sample, learned, exact, report, identified

    def record(self, inp, out, tr) -> None:
        sample, learned, _, report, _ = out
        settle(tr)
        tr.note("sampling.letters", sum(map(len, sample.words)))
        tr.note("learner.states", learned.n)
        tr.note("rationalize.parameters", len(report.entries))
        tr.note("rationalize.recovered", sum(e.rational is not None for e in report.entries))

    def check(self, inp, out) -> list[str]:
        _, _, probability, _ = inp
        sample, _, exact, report, identified = out
        problems = checks.unary_length_problems(sample.words, probability, self.n)
        if not report.complete:
            problems.append(f"exactify_ma report incomplete: {len(report.failures)} "
                            "parameters unrecovered")
        if not identified:
            problems.append("the exact automaton differs from the reduced target")
        return problems + checks.exact_unary_problems(exact, probability)


class NormalizeDraw:
    """A fresh NormalizedSeries, pr_sample of 20 000 words, neg_total_and_abs_mass.

    The pool of signed, certified automata is fixed (the first eight
    random_certified_ma(default_rng(0), 3, "ab", scale=0.2)); --seed
    seeds the words drawn. A seed-drawn pool would hold now and then a
    near-critical automaton whose memo grows to 10⁵ nodes and whose
    operation takes 3.5 s, ten times the others, which no run of
    this length averages out.
    """

    name = "normalize_draw"
    pool_size = 8
    draws = 20_000
    depth = 10
    check_now = True

    def setup(self, seed: int, tr) -> list:
        rng = np.random.default_rng(0)
        pool = []
        while len(pool) < self.pool_size:
            a = random_certified_ma(rng, 3, "ab", scale=0.2)
            if a is not None:
                pool.append(a)
        # each operation rebuilds its automaton from these weights, untimed,
        # so no cached resolvent or spectral radius carries over
        return [((a.alphabet, a.iota, a.tau, dict(a.matrices)), seed * 1000 + i)
                for i, a in enumerate(pool)]

    def warmup(self, inputs) -> None:
        self.op(self.prepare(inputs[0]), _NO_TRACE)

    def words(self, inp) -> int:
        return self.draws

    @staticmethod
    def prepare(inp):
        (alphabet, iota, tau, mats), draw_seed = inp
        return MultiplicityAutomaton(alphabet, iota, tau, mats), draw_seed

    def op(self, fresh_inp, tr):
        base, draw_seed = fresh_inp
        with tr.span("normalize.init"):
            ns = NormalizedSeries(base)
        rng = np.random.default_rng(draw_seed)
        with tr.span("normalize.pr_sample"):
            words = [pr_sample(ns, rng) for _ in range(self.draws)]
        with tr.span("normalize.neg_mass"):
            bracket = neg_total_and_abs_mass(ns, self.depth)
        return ns, words, bracket

    def record(self, fresh_inp, out, tr) -> None:
        tr.note("normalize.nodes", len(out[0].memo))

    def check(self, fresh_inp, out) -> list[str]:
        ns, words, bracket = out
        return checks.normalization_problems(ns, fresh_inp[0], words, bracket)


_NO_TRACE = NullTracer()

WORKLOADS = {w.name: w for w in (LearnLp, IdentifyUnary, NormalizeDraw)}
