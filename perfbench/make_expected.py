"""Write expected/<workload>.json: the answers every benchmark pass is checked against.

Usage, from the root of a checkout: python3 perfbench/make_expected.py [WORKLOAD ...]

The answers are computed once, at seed 0, by one verify pass and one
invariants pass.  Nothing is written unless the two passes agree, no
non-experimental verdict disagrees, and every group's order and character
degree list match the published ones in workloads.PUBLISHED.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

SEED = 0


def expected_answers(workload: str, seed: int = SEED) -> dict[str, dict]:
    dc = run.import_degclass()
    records = dc.parse_corpus(wl.corpus_text(workload, seed))
    _, verify = run.verify_pass(dc, records)
    _, invariants = run.invariants_pass(dc, records)
    groups = {}
    for rec in records:
        answer = verify[rec.name]
        order, degrees = wl.PUBLISHED[rec.name]
        problems = [
            f"{key} differs between verify and invariants"
            for key in wl.INVARIANT_KEYS
            if answer[key] != invariants[rec.name][key]
        ]
        if answer["disagreements"]:
            problems.append(f"{answer['disagreements']} non-experimental disagreements")
        if rec.group.order != order:
            problems.append(f"BSGS order {rec.group.order}, published {order}")
        if answer["m"] != [[d, c] for d, c in sorted(degrees.items())]:
            problems.append(f"degrees {answer['m']}, published {sorted(degrees.items())}")
        if problems:
            raise SystemExit(f"error: {workload}/{rec.name}: " + "; ".join(problems))
        groups[rec.name] = {k: answer[k] for k in wl.VERIFY_KEYS}
    return groups


def main(argv: list[str]) -> int:
    for workload in argv or wl.WORKLOADS:
        groups = expected_answers(workload)
        head = json.dumps({"workload": workload, "seed": SEED, "pi_bound": wl.PI_BOUND})
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(answer)}" for name, answer in groups.items())
        path = wl.HERE / "expected" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f'{head[:-1]}, "groups": {{\n{rows}\n}}}}\n', encoding="utf-8")
        print(f"wrote {path.name}: {len(groups)} groups")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
