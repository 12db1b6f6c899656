"""Show that every output check can fail.

    python3 perfbench/selftest.py

For each workload, one real operation's output must pass its check;
then each deliberately wrong copy of that output must fail it, through
the problem its target check reports, which is what counts an operation
as failed in run.py. Exits 0 when every wrong output was caught and
every real one passed, 1 otherwise.
"""
import dataclasses
import sys

import run

run.import_stoclang()

import numpy as np  # noqa: E402

from stoclang import MultiplicityAutomaton, draw_sample, pr_eval  # noqa: E402
from stoclang.learner import DeesTrace  # noqa: E402

from workloads import IdentifyUnary, LearnLp, NormalizeDraw  # noqa: E402


def with_weights(a, tau=None, matrices=None, mode=None):
    return MultiplicityAutomaton(
        a.alphabet, list(a.iota), list(a.tau if tau is None else tau),
        {x: [list(r) for r in (a.matrices if matrices is None else matrices)[x]]
         for x in a.alphabet.symbols},
        mode=mode or a.mode, labels=a.labels)


def learn_lp_cases():
    wl = LearnLp()
    sample = draw_sample(wl.target, 5_000, 0)
    trace, l1 = wl.op(sample, run_tracer())
    a = trace.automaton
    yield "real output", (wl, sample, (trace, l1)), None

    tau = a.tau.copy()
    tau[0] += 0.1
    yield "learned tau shifted by 0.1", \
        (wl, sample, (DeesTrace(trace.steps, with_weights(a, tau=tau)), l1)), "counts give"

    mats = {x: a.matrices[x].copy() for x in a.alphabet.symbols}
    i, j = np.argwhere(mats["a"] != 0)[0]
    mats["a"][i, j] += 0.1
    yield "learned transition weight shifted by 0.1", \
        (wl, sample, (DeesTrace(trace.steps, with_weights(a, matrices=mats)), l1)), "steps give"

    k = next(s.index for s in trace.steps if s.decision == "combination")
    step = trace.steps[k]
    flipped = dataclasses.replace(step, decision="new-state", coefficients=None)
    yield "combination reported as a new state", \
        (wl, sample, (DeesTrace(_replace_step(trace, k, flipped), a), l1)), "is within eps"

    first = next(iter(step.coefficients))
    coeffs = {**step.coefficients, first: step.coefficients[first] + 0.1}
    shifted = dataclasses.replace(step, coefficients=coeffs)
    yield "combination coefficient shifted by 0.1", \
        (wl, sample, (DeesTrace(_replace_step(trace, k, shifted), a), l1)), "sum to"

    yield "l1_on_ball off by 0.01", (wl, sample, (trace, l1 + 0.01)), "own sum"

    dropped = tuple(s for s in trace.steps if s.index != trace.steps[-1].index)
    yield "last step left out", (wl, sample, (DeesTrace(dropped, a), l1)), "undecided"


def _replace_step(trace, k, step):
    return tuple(step if s.index == k else s for s in trace.steps)


def identify_unary_cases():
    wl = IdentifyUnary()
    inputs = wl.setup(0, run_tracer())
    half, quarter = inputs[0], inputs[1]
    out = wl.op(half, run_tracer())
    sample, learned, exact, report, identified = out
    yield "real output", (wl, half, out), None

    wrong = with_weights(exact, tau=[exact.tau[0] + (exact.tau[0] / 3)])
    yield "wrong rational in the exact automaton", \
        (wl, half, (sample, learned, wrong, report, identified)), "closed form"

    yield "exactify report incomplete", \
        (wl, half, (sample, learned, exact, dataclasses.replace(report, complete=False),
                    identified)), "incomplete"

    other = draw_sample(quarter[0], wl.n, 0)
    yield "sample drawn from the other target", \
        (wl, half, (other, learned, exact, report, identified)), "#a^0"

    yield "not equal to the reduced target", \
        (wl, half, (sample, learned, exact, report, False)), "reduced target"


def normalize_draw_cases():
    wl = NormalizeDraw()
    inputs = wl.setup(0, run_tracer())
    # the third pool member cuts negative mass at the root, so λ < 1 there
    arg = wl.prepare(inputs[2])

    def fresh():
        return wl.op(wl.prepare(inputs[2]), run_tracer())

    yield "real output", (wl, arg, fresh()), None

    ns, words, bracket = fresh()
    outside = next(u for u in arg[0].alphabet.words_upto(8) if pr_eval(ns, u) == 0)
    words[words.index(max(words, key=len))] = outside
    yield f"drawn word swapped for {''.join(outside) or 'ε'}, outside the support", \
        (wl, arg, (ns, words, bracket)), "outside the support"

    ns, words, bracket = fresh()
    biased = [() if w[:1] == ("a",) else w for w in words]
    yield "words starting with a replaced by ε", (wl, arg, (ns, biased, bracket)), "#ε"

    ns, words, bracket = fresh()
    node = max(ns.memo, key=len)
    ns.memo[node].lam = 1.25
    yield "lambda set to 1.25 at one node", (wl, arg, (ns, words, bracket)), "outside (0, 1]"

    ns, words, bracket = fresh()
    heavy = max(ns.memo, key=lambda u: ns.memo[u].weight)
    ns.memo[heavy].weight *= 1.5
    yield "r(u) raised by half in the memo, so p_r(u) > r(u)", \
        (wl, arg, (ns, words, bracket)), "against r"

    ns, words, bracket = fresh()
    ns.memo[node].mass += 1e-6
    yield "mass at one node off by 1e-6", (wl, arg, (ns, words, bracket)), "mass at"

    ns, words, bracket = fresh()
    yield "bracket upper end below the lower end", \
        (wl, arg, (ns, words, {**bracket,
                               "abs_mass_upper": bracket["abs_mass_lower"] - 0.01})), \
        "outside ["

    ns, words, bracket = fresh()
    yield "abs_mass_lower off by 1e-6", \
        (wl, arg, (ns, words, {**bracket, "abs_mass_lower": bracket["abs_mass_lower"] + 1e-6})), \
        "own sum to depth 10"


def run_tracer():
    import tracing
    return tracing.NullTracer()


def main() -> int:
    ok = True
    for group in (learn_lp_cases, identify_unary_cases, normalize_draw_cases):
        for label, (wl, arg, out), expect in group():
            problems = run.problems_of(wl, arg, out)
            if expect is None:
                good, shown = not problems, problems[:1]
            else:
                shown = [p for p in problems if expect in p][:1]
                good = bool(shown)
            ok &= good
            verdict = "failed" if problems else "passed"
            print(f"{'ok ' if good else 'BAD'} {wl.name:15s} {label}: {verdict}"
                  + (f" ({shown[0]})" if shown else ""))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
