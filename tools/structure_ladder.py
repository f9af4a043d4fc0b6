"""Time the structure layer on the S7 ladder (S7, S7xC2 and S7xC3), a whole
verify on two groups of many classes (C2^14 and D8^3xC2^4), the degree
layer on the abelian groups C800, C1600 and C2400 (one class sum used),
C2^10, C2^12, C2^13 and C2^14 (r = 1024 to 16384, one class sum used per
generator), C3^8 (r = 6561) and C3^9 (r = 19683, the largest elementary
abelian group under the enumeration cap, whose int16 Cayley table takes
775 MB), and on three groups with a large centre that is a direct factor,
S3xC5^5 (r = 9375), D8xC2^11 (r = 10240) and D8^2xC2^8 (r = 6400), whose
largest blocks have 3, 4 and 16 orbits; and the pure-Python group build of
C4000 on 4000 points and of D4000 (``dihedral`` 2000, of order 4000 on 2000
points).

Each measurement runs in a fresh interpreter, so that its peak RSS is its
own.  The S7 rungs run two stages:

* ``criteria``: parse the group, build its classes and degree frequency,
  then time ``run_all_criteria`` alone;
* ``verify``: time ``run_report`` plus ``Report.text`` on the one-group
  corpus, as ``degclass verify`` does, and record the report's sha256
  prefix, so that two checkouts can be seen to give the same bytes, and
  the number of groups skipped.

C2^14 runs the ``verify`` and ``degree`` stages, D8^3xC2^4 the ``verify``
stage alone.  C2^14's verify runs every criterion on r = 16384 classes,
whose int16 Cayley table alone takes 537 MB.  The peak RSS of one D8^3xC2^4 run reads either about 265 or about 291 MB for
the same code, depending on heap layout, so a single run cannot show a
change of less than about 26 MB there.

C800, C1600, C2400, C2^10, C2^12, C2^13, C3^8, C3^9, S3xC5^5, D8xC2^11
and D8^2xC2^8 run one:

* ``degree``: parse the group and build its Cayley table, time its
  conjugacy classes (``classes_seconds``; C2^13, C2^14 and C3^9 stack the
  largest conjugation maps, of 13, 14 and 9 generators at |G| = 8192,
  16384 and 19683), then time the degree step alone (``class_algebra`` and
  ``degrees_from_class_algebra``), and record the Dixon prime, the dtype
  its residues are held in (``modmat.residues``; int64 in a checkout that
  predates it) and the peak RSS.  The step then runs once more under
  tracemalloc, whose peak is given in r x r int64 arrays (8 r^2 bytes,
  whatever the residue dtype), so that checkouts with different dtypes
  compare.  A group the degree budget refuses gives a skip record: the
  reason, which holds the budget's byte count, and the peak RSS.

C4000 and D4000 run ``build`` alone: time ``parse_corpus`` of the one-stanza
corpus (Schreier-Sims, the enumeration from its transversals, the element
index, the generators' left maps, inverses and element orders), then the
Cayley table built from those maps (``table_seconds``), and record the peak
RSS both leave.

Usage::

    python tools/structure_ladder.py [--src DIR] [--out FILE]

``--src`` names the ``src`` directory whose ``degclass`` is measured
(default: this checkout's), so two checkouts can be timed by one script.
The result is one JSON document on stdout, or in ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _cycle(n: int) -> str:
    return f"degree {n}\ngen ({','.join(map(str, range(1, n + 1)))})\n"


def _dihedral(n: int) -> str:
    """The rotation and the reflection i -> -i (mod n) on n points."""
    reflection = "".join(f"({i + 1},{n - i + 1})" for i in range(1, (n + 1) // 2))
    return _cycle(n) + f"gen {reflection}\n"


def _gens(*cycles: str) -> str:
    return "".join(f"gen {c}\n" for c in cycles)


def _cycles(length: int, first: int, count: int) -> list[str]:
    """Generators of C_length^count on the points first, first + 1, ..."""
    return ["(" + ",".join(map(str, range(a, a + length))) + ")" for a in range(first, first + length * count, length)]


#: D8^3 on points 1-12, one square and one reflection each
_D8_CUBED = [c for a in (1, 5, 9) for c in (f"({a},{a + 1},{a + 2},{a + 3})", f"({a},{a + 2})")]


#: rung -> (its stanza, its stages)
RUNGS = {
    "S7": ("degree 7\ngen (1,2,3,4,5,6,7)\ngen (1,2)\n", ("criteria", "verify")),
    "S7xC2": ("degree 9\ngen (1,2,3,4,5,6,7)\ngen (1,2)\ngen (8,9)\n", ("criteria", "verify")),
    "S7xC3": ("degree 10\ngen (1,2,3,4,5,6,7)\ngen (1,2)\ngen (8,9,10)\n", ("criteria", "verify")),
    "C2^14": ("degree 28\n" + _gens(*_cycles(2, 1, 14)), ("verify", "degree")),
    "D8^3xC2^4": ("degree 20\n" + _gens(*_D8_CUBED, *_cycles(2, 13, 4)), ("verify",)),
    "C800": (_cycle(800), ("degree",)),
    "C1600": (_cycle(1600), ("degree",)),
    "C2400": (_cycle(2400), ("degree",)),
    "C2^10": ("degree 20\n" + _gens(*_cycles(2, 1, 10)), ("degree",)),
    "C2^12": ("degree 24\n" + _gens(*_cycles(2, 1, 12)), ("degree",)),
    "C2^13": ("degree 26\n" + _gens(*_cycles(2, 1, 13)), ("degree",)),
    "C3^8": ("degree 24\n" + _gens(*_cycles(3, 1, 8)), ("degree",)),
    "C3^9": ("degree 27\n" + _gens(*_cycles(3, 1, 9)), ("degree",)),
    "S3xC5^5": ("degree 28\n" + _gens("(1,2,3)", "(1,2)", *_cycles(5, 4, 5)), ("degree",)),
    "D8xC2^11": ("degree 26\n" + _gens(*_D8_CUBED[:2], *_cycles(2, 5, 11)), ("degree",)),
    "D8^2xC2^8": ("degree 24\n" + _gens(*_D8_CUBED[:4], *_cycles(2, 9, 8)), ("degree",)),
    "C4000": (_cycle(4000), ("build",)),
    "D4000": (_dihedral(2000), ("build",)),
}


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def measure(rung: str, stage: str) -> dict:
    """One stage of one rung, in this interpreter."""
    from degclass.corpus import parse_corpus
    from degclass.criteria import GroupData, run_all_criteria
    from degclass.report import run_report

    start = perf_counter()
    records = parse_corpus(f"group {rung}\n{RUNGS[rung][0]}end\n")
    if stage == "build":
        group = records[0].group
        out = {"order": group.order, "seconds": round(perf_counter() - start, 3)}
        start = perf_counter()
        group.table
        return {**out, "table_seconds": round(perf_counter() - start, 3), "peak_rss_mb": _peak_rss_mb()}
    if stage == "degree":
        return _measure_degree_step(records[0].group)
    if stage == "criteria":
        data = GroupData(records[0].group, rung)
        out = {"order": data.order, "classes": len(data.classes)}
        data.degree_frequency
        start = perf_counter()
        out["verdicts"] = len(run_all_criteria(data, rung))
        out["seconds"] = round(perf_counter() - start, 3)
    else:
        start = perf_counter()
        report = run_report(records)
        text = report.text
        seconds = round(perf_counter() - start, 3)
        out = {"seconds": seconds, "report_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
        out["skipped"] = int(report.document["summary"]["skipped"])
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _measure_degree_step(group) -> dict:
    import numpy as np
    from degclass import modmat
    from degclass.chardeg import class_algebra, degrees_from_class_algebra
    from degclass.group import GroupTooLargeError
    from degclass.structure import conjugacy_classes

    group.table, group.inverses, group.element_orders  # built before the clock starts
    start = perf_counter()
    classes = conjugacy_classes(group)
    r = len(classes)
    out = {"order": group.order, "classes": r, "classes_seconds": round(perf_counter() - start, 4)}
    start = perf_counter()
    try:
        data = class_algebra(group, classes)
    except GroupTooLargeError as skip:
        return {**out, "skipped": str(skip), "peak_rss_mb": _peak_rss_mb()}
    degrees = degrees_from_class_algebra(data)
    residues = getattr(modmat, "residues", lambda ell: np.int64)
    out.update(dixon_prime=data.dixon_prime, residue_dtype=np.dtype(residues(data.dixon_prime)).name)
    out["degrees"] = degrees.as_dict()
    out["seconds"] = round(perf_counter() - start, 3)
    out["peak_rss_mb"] = _peak_rss_mb()
    del data, degrees
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        degrees_from_class_algebra(class_algebra(group, classes))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    out["traced_peak_r2_arrays"] = round(peak / (8 * r * r), 4)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out")
    parser.add_argument("--rung", choices=RUNGS, help=argparse.SUPPRESS)
    parser.add_argument("--stage", choices=("criteria", "verify", "degree", "build"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rung:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.rung, args.stage)))
        return
    rungs = {}
    for rung, (_, stages) in RUNGS.items():
        for stage in stages:
            child = [sys.executable, __file__, "--src", args.src, "--rung", rung, "--stage", stage]
            rungs.setdefault(rung, {})[stage] = json.loads(subprocess.check_output(child))
            print(rung, stage, rungs[rung][stage], file=sys.stderr)
    machine = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    text = json.dumps({**machine, "rungs": rungs}, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
