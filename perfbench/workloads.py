"""Workload corpora, seed relabelling, and the answer checks of the benchmark.

Each workload is a corpus file in ``corpus/``.  The seed replaces every
group's generators by another generating tuple of the same permutation group
(see ``regenerate``), so the program sees a different input for every seed
while the element set, its enumeration order, and so the work, stay the same.
Every seed has the same expected answers, stored once per workload in
``expected/``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("builtin", "nonabelian", "cyclic", "elementary_abelian")
PI_BOUND = 2


def _abelian(order: int) -> tuple[int, dict[int, int]]:
    return order, {1: order}


# Group orders and character degree lists from the literature (ATLAS, and the
# standard tables of the small groups), independent of this code: name ->
# (order, {degree: multiplicity}).  Abelian groups have |G| linear characters.
PUBLISHED: dict[str, tuple[int, dict[int, int]]] = {
    **{f"C{n}": _abelian(n) for n in (*range(1, 13), 96, 120)},
    "C2^7": _abelian(128),
    "C3^4": _abelian(81),
    "C5^3": _abelian(125),
    "S3": (6, {1: 2, 2: 1}),
    "S4": (24, {1: 2, 2: 1, 3: 2}),
    "A4": (12, {1: 3, 3: 1}),
    "A5": (60, {1: 1, 3: 2, 4: 1, 5: 1}),
    "D8": (8, {1: 4, 2: 1}),
    "D12": (12, {1: 4, 2: 2}),
    "Q8": (8, {1: 4, 2: 1}),
    "SL(2,3)": (24, {1: 3, 2: 3, 3: 1}),
    "Hol(C7)": (42, {1: 6, 6: 1}),
    "C7:C3": (21, {1: 3, 3: 2}),
    "Q8xC3": (24, {1: 12, 2: 3}),
    "S3xC5": (30, {1: 10, 2: 5}),
    "A4xC2": (24, {1: 6, 3: 2}),
    "D8xC9": (72, {1: 36, 2: 9}),
    "GL(2,3)": (48, {1: 2, 2: 3, 3: 2, 4: 1}),
    "S5": (120, {1: 2, 4: 2, 5: 2, 6: 1}),
    "Hol(C13)": (156, {1: 12, 12: 1}),
    "PSL(2,7)": (168, {1: 1, 3: 2, 6: 1, 7: 1, 8: 1}),
    "A6": (360, {1: 1, 5: 2, 8: 2, 9: 1, 10: 1}),
    "S6": (720, {1: 2, 5: 4, 9: 2, 10: 2, 16: 1}),
}


def _parse_perm(text: str, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        points = [int(p) - 1 for p in cycle.split(",") if p.strip()]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def _format_perm(images: tuple[int, ...]) -> str:
    seen, cycles = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = images[x]
        cycles.append("(" + ",".join(cycle) + ")")
    return "".join(cycles)


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a then b."""
    return tuple(b[x] for x in a)


def _power(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = tuple(range(len(a)))
    for _ in range(k):
        out = _mul(out, a)
    return out


def _order(a: tuple[int, ...]) -> int:
    identity, x, k = tuple(range(len(a))), a, 1
    while x != identity:
        x, k = _mul(x, a), k + 1
    return k


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def regenerate(gens: list[tuple[int, ...]], degree: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Another generating tuple of the same permutation group.

    Identity generators are dropped.  Each other generator is replaced by a
    power coprime to its order, then come Nielsen moves g_i <- g_i * g_j^(+-1),
    then all are conjugated by a random group element (a relabelling of the
    points that maps the group onto itself), and the order is shuffled.  Every
    step keeps the generated group, so the element set and its enumeration
    order stay the same.
    """
    identity = tuple(range(degree))
    gens = [g for g in gens if g != identity]
    if not gens:
        return []
    out = []
    for g in gens:
        n = _order(g)
        out.append(_power(g, rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])))
    for _ in range(2 * len(out) if len(out) > 1 else 0):
        i, j = rng.sample(range(len(out)), 2)
        moved = _mul(out[i], out[j] if rng.random() < 0.5 else _inverse(out[j]))
        if moved != identity and moved not in out:
            out[i] = moved
    sigma = identity
    for _ in range(16):
        sigma = _mul(sigma, rng.choice(gens))
    sigma_inv = _inverse(sigma)
    out = [_mul(_mul(sigma_inv, g), sigma) for g in out]
    rng.shuffle(out)
    return out


def stanzas(workload: str) -> list[tuple[str, int, list[str]]]:
    """(name, degree, generators) of each group in the workload's corpus file."""
    out = []
    for raw in (HERE / "corpus" / f"{workload}.txt").read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        keyword, _, rest = line.partition(" ")
        if keyword == "group":
            name, degree, gens = rest.strip(), 0, []
        elif keyword == "degree":
            degree = int(rest)
        elif keyword == "gen":
            gens.append(rest.strip())
        elif keyword == "end":
            out.append((name, degree, gens))
    return out


def corpus_text(workload: str, seed: int) -> str:
    """The workload's corpus, each group given by a generating tuple drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    blocks = []
    for name, degree, gens in stanzas(workload):
        perms = regenerate([_parse_perm(g, degree) for g in gens], degree, rng)
        lines = [f"group {name}", f"degree {degree}", *(f"gen {_format_perm(g)}" for g in perms), "end"]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def pi_sets(primes: tuple[int, ...]):
    for size in range(0, min(PI_BOUND, len(primes)) + 1):
        yield from itertools.combinations(primes, size)


def _pairs(entries) -> list[list[int]]:
    return [[int(a), int(b)] for a, b in entries]


def verdict_digest(verdicts: list[dict]) -> str:
    """sha256 over the (criterion, primes, both sides' holds and numbers, agrees) tuples."""
    rows = [
        [
            v["criterion"],
            [int(p) for p in v["primes"]],
            v["invariant"]["holds"],
            {k: int(x) for k, x in v["invariant"]["numbers"].items()},
            v["structure"]["holds"],
            {k: int(x) for k, x in v["structure"]["numbers"].items()},
            v["agrees"],
        ]
        for v in verdicts
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def verify_answers(document: dict) -> dict[str, dict]:
    """Per-group answers read from a verify report document."""
    answers = {}
    for block in document["groups"]:
        verdicts = block.get("verdicts", [])
        answers[block["name"]] = {
            "order": int(block["order"]),
            "m": _pairs(block.get("degree_frequency", [])),
            "w": _pairs(block.get("class_size_frequency", [])),
            "pi_table": [
                [[int(p) for p in t["pi"]], int(t["u_pi"]), int(t["s_pi"])]
                for t in block.get("invariant_tables", [])
            ],
            "verdicts": len(verdicts),
            "experimental_disagreements": sum(
                1 for v in verdicts if v["experimental"] and not v["agrees"]
            ),
            "disagreements": sum(1 for v in verdicts if not v["experimental"] and not v["agrees"]),
            "verdict_digest": verdict_digest(verdicts),
        }
    return answers


VERIFY_KEYS = ("order", "m", "w", "pi_table", "verdicts", "experimental_disagreements", "verdict_digest")
INVARIANT_KEYS = ("order", "m", "w", "pi_table")


def failed_groups(answers: dict[str, dict], expected: dict[str, dict], keys: tuple[str, ...]) -> list[str]:
    """Names of expected groups whose answer is missing, wrong, or has a
    non-experimental disagreement."""
    bad = []
    for name, want in expected.items():
        got = answers.get(name)
        if (
            got is None
            or got.get("disagreements", 0) != 0
            or any(got[k] != want[k] for k in keys)
        ):
            bad.append(name)
    return bad


def load_expected(workload: str) -> dict[str, dict]:
    path = HERE / "expected" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["groups"]
