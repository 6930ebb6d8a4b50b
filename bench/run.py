"""Benchmark of the cyclomag library, one workload per run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload roundtrip|queries|triage --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the same tree.  Each workload is
a closed loop: one caller in this single-threaded process sends the next
item only after the previous one returns.  Every item runs under a wall
budget enforced with SIGALRM; an item past it is recorded as undecided
and the loop goes on.  Results are checked against known answers
outside the timed region.

``--trace 0`` sets the inputs up three times (reporting the median set-up
time), then runs items for ``--seconds`` and reports the end-to-end
metrics.  End-to-end times are scaled to a reference core speed by the
probe of ``speed.py``, timed between items; the raw figures are in the
metadata.  ``--trace 1`` runs items untraced for half of ``--seconds``,
then runs the same items again with every layer wrapped from outside,
and reports the per-layer metrics and the tracing overhead.  The
roundtrip traced run also re-measures the baseline table of ROADMAP.md.

Standard output ends with a metadata line and then one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the same
content goes to ``bench/out/``.  ``failed`` counts items that raised or
failed their check; ``correct`` is false when any of them is not one of
the workload's known defects, which the metadata names.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("decided_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_REPEATS = 3
# latency_ms_tail is the highest of these percentiles that leaves at
# least ten samples above it.  Decade steps keep the choice fixed while
# the item count of a run moves within a factor of ten; the ladder stops
# at p99 because a shared machine's own hiccups decide anything rarer.
TAIL_LADDER = (50, 90, 99)
# Throughput is the median over this many consecutive slices of the
# timed rounds, so a burst of load from elsewhere on the machine moves it
# less than it moves a mean.
SLICES = 8

DECIDED, RAISED, UNDECIDED = 0, 1, 2


class BudgetExceeded(BaseException):
    """Raised from SIGALRM when an item outlives its budget.

    A BaseException, so no ``except Exception`` in the library catches it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded


def timed_call(fn, budget_s: float):
    """Run ``fn`` under a one-shot wall budget: (outcome, seconds, result or exception)."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    t0 = time.perf_counter()
    try:
        try:
            result = fn()
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return UNDECIDED, budget_s, None
    except Exception as exc:  # an item that raises is recorded, never fatal
        return RAISED, time.perf_counter() - t0, exc
    return DECIDED, elapsed, result


class Tally:
    """Outcomes of a closed loop, kept compact so memory does not grow with speed."""

    def __init__(self):
        self.latencies = array("d")
        self.outcomes = array("b")
        self.failures: list[tuple[int, str, str]] = []
        self.undecided: list[tuple[int, str]] = []
        self.round_ends: list[int] = []  # item count at the end of each round
        self.rss_mb = array("d")  # the process's peak RSS at the end of each round

    @property
    def rounds(self) -> int:
        return len(self.round_ends)

    def slices(self, k: int):
        """(latencies, outcomes) of k runs of consecutive whole rounds."""
        bounds = [0] + [self.round_ends[(i + 1) * self.rounds // k - 1] for i in range(k)]
        return [
            (self.latencies[a:b], self.outcomes[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
        ]

    def __len__(self) -> int:
        return len(self.latencies)


def run_items(rounds, budget_s: float, seconds: float = math.inf, tracer=None, probe=None) -> Tally:
    """Closed loop over whole rounds, until ``rounds`` ends or ``seconds`` have passed.

    An installed ``tracer`` records during the timed calls only; a
    ``probe`` (a ``speed.SpeedProbe``) times core speed between items.
    """
    tally = Tally()
    if probe is not None:
        probe.tick(0)
    start = time.perf_counter()
    for r, cases in enumerate(rounds):
        if r > 0 and time.perf_counter() - start >= seconds:
            break
        for case in cases:
            if tracer is not None:
                tracer.start()
            outcome, latency, result = timed_call(case.call, budget_s)
            if tracer is not None:
                tracer.stop()
            error = None
            if outcome == RAISED:
                error = f"raised {type(result).__name__}: {result}"
            elif outcome == DECIDED:
                try:
                    case.check(result)
                except Exception as exc:  # a failed check is counted, never fatal
                    error = f"{type(exc).__name__}: {exc}"
            else:
                tally.undecided.append((r, case.kind))
            if error is not None:
                tally.failures.append((r, case.kind, error))
            tally.latencies.append(latency)
            tally.outcomes.append(outcome)
            if probe is not None:
                probe.tick(len(tally))
        tally.round_ends.append(len(tally))
        tally.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return tally


def _keeping(rounds, kept: list):
    for cases in rounds:
        kept.append(cases)
        yield cases


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) for the tail metric, by nearest rank."""
    n = len(latencies)
    ranked = sorted(latencies)
    fit = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    if not fit:
        return 100.0, ranked[-1]
    p = fit[-1]
    return p, ranked[math.ceil(p / 100 * n) - 1]


def scaled(tally: Tally, scales) -> Tally:
    """The tally with every measured latency multiplied by its scale.

    An undecided item keeps the budget: that is a cap, not a measurement.
    """
    out = Tally()
    out.latencies = array(
        "d", (x if o == UNDECIDED else x * s for x, o, s in zip(tally.latencies, tally.outcomes, scales))
    )
    out.outcomes, out.failures, out.undecided, out.round_ends = (
        tally.outcomes,
        tally.failures,
        tally.undecided,
        tally.round_ends,
    )
    return out


def timings(tally: Tally) -> dict:
    """Throughput, median and tail latency of a tally."""
    latencies = tally.latencies
    slices = tally.slices(min(SLICES, tally.rounds))
    return {
        "throughput_per_s": statistics.median(
            sum(o != UNDECIDED for o in outcomes) / sum(lat) for lat, outcomes in slices
        ),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": tail(latencies)[1] * 1e3,
    }


def summarize(tally: Tally, workload, scales=None) -> tuple[dict, dict]:
    """End-to-end values and the metadata that goes with them.

    With ``scales``, one per item, the timings are those of the scaled
    latencies, and the raw ones go into the metadata.
    """
    raw, timed_s = timings(tally), sum(tally.latencies)
    if scales is not None:
        tally = scaled(tally, scales)
    latencies = tally.latencies
    decided = len(tally) - len(tally.undecided)
    percentile, tail_value = tail(latencies)
    undecided_by_round = [[] for _ in range(tally.rounds)]
    for r, kind in tally.undecided:
        undecided_by_round[r].append(kind)
    values = {**timings(tally), "decided_frac": decided / len(tally)}
    meta = {
        "items": len(tally),
        "rounds": tally.rounds,
        "timed_s": timed_s,
        "tail_percentile": percentile,
        "tail_samples": len(tally),
        "tail_samples_beyond": sum(x > tail_value for x in latencies),
        "error_frac": len(tally.failures) / len(tally),
        "decided_frac": values["decided_frac"],
        "undecided_kinds": sorted({kind for _, kind in tally.undecided}),
        "undecided_same_every_round": len({tuple(sorted(ks)) for ks in undecided_by_round}) == 1,
        "failed_cases": [f"r{r}/{kind}: {error}" for r, kind, error in tally.failures],
        "unexpected_failures": sorted({kind for _, kind, _ in tally.failures} - set(workload.known_defects)),
        "known_defects": workload.known_defects,
    }
    if scales is not None:
        meta["unscaled"] = raw
    return values, meta


def quiesce() -> None:
    """Collect garbage once and move everything alive out of the collector's view.

    The inputs the benchmark holds are then never scanned by the cyclic
    collector during the timed phase, as a user's program would not hold
    them; what the library allocates and keeps is scanned as usual.
    """
    gc.collect()
    gc.freeze()


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def baseline_rows(budget_s: float) -> list[dict]:
    """The baseline table of ROADMAP.md, one budgeted call per cell."""
    import inputs
    from cyclomag import GeneratorConfig, condition1, random_dmg, represent, validate

    def cell(outcome, seconds, _result=None):
        return seconds if outcome == DECIDED else ("timeout" if outcome == UNDECIDED else "raised")

    rows = []
    for n, p_dir, p_bi, sel, seed in ((80, 2, 1, 8, 1), (160, 2, 1, 16, 1), (160, 1.5, 0.8, 0, 3)):
        c = random_dmg(GeneratorConfig(n, p_dir / n, p_bi / n, n_selection=sel, seed=seed))
        outcome, seconds, h = timed_call(lambda: represent(c), budget_s)
        row = {
            "case": f"random_dmg({n}, {p_dir}/n, {p_bi}/n, sel={sel}, seed={seed})",
            "represent_s": cell(outcome, seconds),
        }
        if outcome == DECIDED:
            row["validate_s"] = cell(*timed_call(lambda: validate(h), budget_s))
            row["condition1_s"] = cell(*timed_call(lambda: condition1(h, h), budget_s))
        rows.append(row)
    nodes, edges = inputs.mark_heavy_mixed(22, 22)
    h = inputs.mixed_graph(nodes, edges)
    canary = cell(*timed_call(lambda: validate(h), budget_s))
    rows.append({"case": "validate, mark-heavy mixed graph n=22 seed=22", "validate_s": canary})
    return rows


def main(argv=None) -> int:
    if not (ROOT / "src" / "cyclomag" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'cyclomag'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cyclomag
    import layertrace
    import speed
    from workloads import WORKLOADS, reset_caches

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(cyclomag.__file__).resolve().parent != ROOT / "src" / "cyclomag":
        print(f"error: imported cyclomag from {cyclomag.__file__}, not from this tree", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"docs-{args.workload}-{os.getpid()}"
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    cls = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "why": cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "budget_s": cls.budget_s,
    }
    try:
        if args.trace == 0:
            setup_times, setup_scales = [], []
            for _ in range(SETUP_REPEATS):
                reset_caches()
                workload = None  # the previous set-up's inputs go before the next is timed
                gc.collect()
                workload = cls(args.seed, workdir)
                before = speed.probe_median()
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
                setup_scales.append(speed.REFERENCE_S / statistics.median([before, speed.probe_median()]))
            workload.warm()
            quiesce()
            probe = speed.SpeedProbe()
            tally = run_items(workload.rounds(), cls.budget_s, args.seconds, probe=probe)
            values, run_meta = summarize(tally, workload, probe.scales(len(tally)))
            values["setup_s"] = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
            # Peak RSS once the rounds built in set-up have run: a fixed amount of
            # work, so a faster library, which runs more rounds and keeps more
            # results, does not read as using more memory.
            rss_rounds = min(workload.setup_rounds, tally.rounds)
            values["peak_rss_mb"] = tally.rss_mb[rss_rounds - 1]
            run_meta["unscaled"]["setup_s"] = statistics.median(setup_times)
            meta.update(
                run_meta,
                setup_runs_s=setup_times,
                rss_rounds=rss_rounds,
                rss_end_mb=tally.rss_mb[-1],
                probe_median_s=probe.median(),
                probe_samples=len(probe.took),
                reference_s=speed.REFERENCE_S,
                **workload.report(),
            )
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        else:
            workload = cls(args.seed, workdir)
            workload.setup()
            workload.warm()
            quiesce()
            # Keep the rounds, so the traced pass repeats the very same items
            # and builds no inputs while the tracer is installed.
            kept = []
            untraced = run_items(_keeping(workload.rounds(), kept), cls.budget_s, args.seconds / 2)
            reset_caches()
            workload.warm()
            tracer = layertrace.Tracer()
            snapshot = layertrace.library_snapshot()
            tracer.install()
            try:
                tally = run_items(kept[: untraced.rounds], cls.budget_s, tracer=tracer)
            finally:
                tracer.uninstall()
            both = [
                (a, b)
                for a, b, oa, ob in zip(untraced.latencies, tally.latencies, untraced.outcomes, tally.outcomes)
                if oa == ob == DECIDED
            ]
            values = tracer.metrics()
            values["trace.overhead_frac"] = sum(b for _, b in both) / sum(a for a, _ in both) - 1
            _, run_meta = summarize(tally, workload)
            meta.update(run_meta, trace_restored=layertrace.snapshot_matches(snapshot), **workload.report())
            if args.workload == "roundtrip":
                meta["baseline"] = baseline_rows(cls.budget_s)
            names = layertrace.per_layer_names()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in names}
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not meta["unexpected_failures"],
        "attempted": len(tally),
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    report = {"meta": meta, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
