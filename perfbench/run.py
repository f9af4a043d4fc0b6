"""The degclass benchmark: one single-threaded process, a closed loop with one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload corpus is generated from the seed (see workloads.py) and fed to
the package's public API along the two command paths:

* verify: ``run_report(records)`` plus ``Report.text``, as ``degclass verify``;
* invariants: a fresh ``GroupData`` per group, its ``degree_frequency`` and
  ``size_frequency``, and ``u_pi``/``s_pi_size`` for every pi-set with
  |pi| <= 2, as ``degclass invariants``.

With ``--trace 0`` the run times batches of verify and invariants passes for
about S seconds, half of it on each path where the passes allow, and reports
the median pass times, the set-up time (import plus ``parse_corpus``,
measured in fresh interpreters) and the peak RSS; the times are scaled to a reference speed (see speed.py).  With
``--trace 1`` it runs one untraced verify pass, then one traced set-up,
verify pass and invariants pass, and reports the per-layer metrics.  Every
pass is checked against ``expected/<workload>.json``.  The last line of
stdout is one JSON object; samples and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench_out"
SETUP_PROBES = 5
# a batch repeats one pass until the repeats have taken this long; the batch
# gives one sample, its mean pass time, so a cheap pass is timed over as long
# a stretch as the machine's speed is sampled
MIN_BATCH_S = 2.0
# another batch starts only if it should end within this share of a batch
# past the deadline
OVERRUN = 0.25
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import LAYER_METRICS, RUN_METRICS, Tracer  # noqa: E402


def import_degclass():
    """Import degclass from this checkout's src/, never from anywhere else."""
    init = SRC / "degclass" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no degclass sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import degclass

    if Path(degclass.__file__).resolve() != init.resolve():
        sys.exit(f"error: degclass was imported from {degclass.__file__}, not from {SRC}")
    return degclass


def probe_setup(text: str) -> float:
    """Import degclass and parse the corpus in a fresh interpreter; its scaled time."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC)],
        input=text, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def verify_pass(dc, records) -> tuple[float, dict]:
    """One ``degclass verify`` pass; its time and the per-group answers."""
    start = perf_counter()
    report = dc.report.run_report(records, dc.ReportOptions(pi_bound=wl.PI_BOUND))
    report.text
    elapsed = perf_counter() - start
    return elapsed, wl.verify_answers(report.document)


def invariants_pass(dc, records, tracer: Tracer | None = None) -> tuple[float, dict]:
    """One ``degclass invariants`` pass over every group; its time and answers."""
    answers = {}
    start = perf_counter()
    for rec in records:
        with tracer.span("invariants.group", rec.name) if tracer else nullcontext():
            data = dc.criteria.GroupData(rec.group, rec.name)
            m, w = data.degree_frequency, data.size_frequency
            answers[rec.name] = {
                "order": rec.group.order,
                "m": [list(e) for e in m.entries],
                "w": [list(e) for e in w.entries],
                "pi_table": [
                    [list(ps), dc.metrics.u_pi(m, ps), dc.metrics.s_pi_size(data.classes, ps)]
                    for ps in wl.pi_sets(data.primes)
                ],
            }
    return perf_counter() - start, answers


class Tally:
    """Groups attempted and failed, over every pass of a run."""

    def __init__(self, expected: dict[str, dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, run_pass, keys, *args) -> float:
        """Run one pass; a pass that raises fails every group it covers."""
        self.attempted += len(self.expected)
        start = perf_counter()
        try:
            elapsed, answers = run_pass(*args)
        except Exception:  # the failure is counted, the run goes on
            print(f"error: {run_pass.__name__} raised", file=sys.stderr)
            traceback.print_exc()
            self.failed += len(self.expected)
            return perf_counter() - start
        bad = wl.failed_groups(answers, self.expected, keys)
        if bad:
            print(f"error: {run_pass.__name__}: wrong answers for {', '.join(bad)}", file=sys.stderr)
        self.failed += len(bad)
        return elapsed


def timed_run(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    start = perf_counter()
    deadline = start + seconds
    dc = import_degclass()
    text = wl.corpus_text(workload, seed)
    tally = Tally(wl.load_expected(workload))
    speed = Speedometer()
    samples: dict[str, list[float]] = {"setup_s": [], "verify_s": [], "invariants_s": []}
    passes = {"verify_s": 0, "invariants_s": 0}
    setup = samples["setup_s"]

    def probe_when_due() -> None:
        # set-up samples are spread over the run, so a slow second does not set them all
        while len(setup) < SETUP_PROBES and perf_counter() >= start + seconds * len(setup) / SETUP_PROBES:
            setup.append(probe_setup(text))

    def batch(metric: str, run_pass, keys) -> None:
        """Repeat a pass for at least MIN_BATCH_S; record its mean time, scaled."""
        times: list[float] = []
        with speed.sampling():
            batch_start = perf_counter()
            while not times or perf_counter() - batch_start < MIN_BATCH_S:
                times.append(tally.check(run_pass, keys, dc, records))
        samples[metric].append(statistics.fmean(times) * speed.scales[-1])
        passes[metric] += len(times)

    records = dc.parse_corpus(text)
    paths = {"verify_s": (verify_pass, wl.VERIFY_KEYS), "invariants_s": (invariants_pass, wl.INVARIANT_KEYS)}
    spent = dict.fromkeys(paths, 0.0)
    last = dict.fromkeys(paths, 0.0)
    while True:
        probe_when_due()
        # the path timed for less so far goes next, so a cheap pass gets as
        # many batches as the time a costly one leaves it
        metric = min(spent, key=spent.get)
        if samples[metric] and perf_counter() + (1 - OVERRUN) * last[metric] > deadline:
            break
        batch_start = perf_counter()
        batch(metric, *paths[metric])
        last[metric] = perf_counter() - batch_start
        spent[metric] += last[metric]
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(text))
    metrics = {name: (statistics.median(values), "s") for name, values in samples.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return tally, metrics, {**samples, "passes": passes, "speed": speed.scales}


def traced_run(workload: str, seed: int) -> tuple[Tally, dict, Tracer]:
    text = wl.corpus_text(workload, seed)
    tally = Tally(wl.load_expected(workload))
    dc = import_degclass()
    speed = Speedometer()
    with speed.sampling():
        plain = tally.check(verify_pass, wl.VERIFY_KEYS, dc, dc.parse_corpus(text))
    tracer = Tracer()
    tracer.install()
    try:
        with speed.sampling():
            with tracer.span("setup"):
                records = tracer.traced(dc.parse_corpus, "corpus.parse")(text)
            with tracer.span("verify"):
                traced = tally.check(verify_pass, wl.VERIFY_KEYS, dc, records)
        tracer.request = None
        with tracer.span("invariants"):
            tally.check(invariants_pass, wl.INVARIANT_KEYS, dc, records, tracer)
    finally:
        tracer.restore()
    plain_scale, traced_scale = speed.scales
    units = {name: unit for name, unit, *_ in LAYER_METRICS + RUN_METRICS}
    values = {
        **tracer.layer_metrics(),
        "trace.overhead_s": traced * traced_scale - plain * plain_scale,
        "trace.speed": traced_scale,
    }
    return tally, {name: (value, units[name]) for name, value in values.items()}, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, tracer = traced_run(args.workload, args.seed)
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "request", "parent", "start", "end"), span))) + "\n")
    else:
        tally, metrics, samples = timed_run(args.workload, args.seed, args.seconds)
        Path(f"{stem}.samples.json").write_text(json.dumps(samples, indent=1), encoding="utf-8")

    fail_ratio = tally.failed / tally.attempted
    print(f"{args.workload} seed {args.seed}: {tally.attempted} group results, fail_ratio {fail_ratio}",
          file=sys.stderr)
    if not args.trace:
        print(f"passes: {samples['passes']}, batches: {len(samples['verify_s'])}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
