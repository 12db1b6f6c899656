"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload learn_lp --seed 0 --seconds 30 --trace 0

Run from the repository root; stoclang is imported from ./src. With
--trace 0 the last line carries the end-to-end metrics (op_s,
words_per_s, setup_s, peak_rss_mb); with --trace 1 it carries the
per-layer metrics, and the spans go to perfbench/runs/. See README.md.
"""
import time

_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up is built this many times and timed as the median
SETUP_REPEATS = 3


def import_stoclang() -> None:
    """Import stoclang from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import stoclang
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stoclang from {SRC}: {exc}")
    if Path(stoclang.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: stoclang came from {stoclang.__file__}, not {SRC}")


def problems_of(wl, arg, out) -> list[str]:
    """The workload's check on one output; a crash in the check is a problem too."""
    try:
        return wl.check(arg, out)
    except Exception as exc:  # reported as the failure of that operation
        return [f"check raised {type(exc).__name__}: {exc}"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["learn_lp", "identify_unary", "normalize_draw"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_stoclang()
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        # drop the last build first, so that one set of inputs is alive at a time
        # and peak_rss_mb holds no inputs that no operation uses
        inputs = None
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, tr)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    wl.warmup(inputs)
    if args.trace:
        tracing.install(tr)

    op_times: list[float] = []
    pass_rates: list[float] = []  # words per second of each pass
    attempted = failed = wrong = 0
    pending = []

    def judge(index, arg, out) -> None:
        nonlocal failed, wrong
        problems = problems_of(wl, arg, out)
        if problems:
            failed += 1
            wrong += 1
            print(f"perfbench: {args.workload} operation {index}: "
                  + "; ".join(problems[:3]), file=sys.stderr)

    measured = 0.0
    passes = 0
    # whole passes only, as many as bring the measured time nearest --seconds
    while passes == 0 or measured + 0.5 * measured / passes < args.seconds:
        passes += 1
        pass_words, pass_time = 0, 0.0
        for inp in inputs:
            arg = wl.prepare(inp)
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    out = wl.op(arg, tr)
            except Exception as exc:  # the program failed this operation
                measured += time.perf_counter() - t0
                failed += 1
                print(f"perfbench: {args.workload} operation {attempted} raised "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            measured += dt
            op_times.append(dt)
            pass_words += wl.words(arg)
            pass_time += dt
            if tr.enabled:
                wl.record(arg, out, tr)
            if wl.check_now:
                judge(attempted, arg, out)
            else:
                pending.append((attempted, arg, out))
            # free this output before the next operation builds its own
            del out
        if pass_time > 0:
            pass_rates.append(pass_words / pass_time)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for index, arg, out in pending:
        judge(index, arg, out)

    op_s = statistics.median(op_times) if op_times else 0.0
    if args.trace:
        metrics = tr.per_layer()
        runs = HERE / "runs"
        runs.mkdir(exist_ok=True)
        tr.dump(runs / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed,
                 "traced_op_s": op_s, "operations": attempted})
        if tr.absent:
            print("perfbench: absent (wrapped function gone): " + ", ".join(tr.absent),
                  file=sys.stderr)
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "words_per_s": {"value": statistics.median(pass_rates) if pass_rates else 0.0,
                            "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
