"""Corpus definition: the stanza text format and the built-in menagerie.

The text format is line oriented.  A stanza is::

    group <name>
    degree <n>
    gen (1,2,3)(4,5)
    gen (1,2)
    end

``#`` starts a comment (full line or trailing), blank lines are ignored,
cycles are 1-based, and a stanza may have zero ``gen`` lines to denote the
trivial group on its points.  Names must be unique within a corpus.

Records always store the canonical serialization of their generators (the
cycle string regenerated from the parsed permutation), so parsing the
serialized corpus reproduces the records byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .families import standard_group
from .group import Group, GroupTooLargeError, build_group, direct_product
from .perm import format_cycles, parse_cycles, parse_decimal

#: largest accepted stanza degree; each generator of a stanza is held as
#: ``degree`` integers, so an unchecked degree could exhaust memory
MAX_DEGREE = 10**5


class CorpusError(ValueError):
    """A corpus file problem; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class GroupRecord:
    name: str
    source: str  # "builtin" | "file"
    degree: int
    generator_strings: tuple[str, ...]
    group: Group


def _record(name: str, group: Group, source: str) -> GroupRecord:
    return GroupRecord(
        name=name,
        source=source,
        degree=group.degree,
        generator_strings=tuple(format_cycles(g) for g in group.generators),
        group=group,
    )


def parse_corpus(text: str) -> list[GroupRecord]:
    """Parse corpus text into built GroupRecords, each of source ``"file"``.

    Raises CorpusError with a line number for syntax errors, bad cycles,
    points beyond the degree, a degree above MAX_DEGREE, duplicate names, or
    a group whose Schreier-Sims transversals would exceed the table budget.
    """
    records: list[GroupRecord] = []
    seen: set[str] = set()
    name: str | None = None
    degree: int | None = None
    gens: list = []
    start_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "group":
            if name is not None:
                raise CorpusError(f"stanza {name!r} not terminated before new group", lineno)
            if not rest or any(c.isspace() for c in rest):
                raise CorpusError("group needs a single-token name", lineno)
            if rest in seen:
                raise CorpusError(f"duplicate group name {rest!r}", lineno)
            name = rest
            degree = None
            gens = []
            start_line = lineno
        elif keyword == "degree":
            if name is None:
                raise CorpusError("degree outside a group stanza", lineno)
            if degree is not None:
                raise CorpusError("degree given twice", lineno)
            try:
                degree = parse_decimal(rest)
            except ValueError:
                raise CorpusError(f"bad degree {rest!r}", lineno) from None
            if degree < 1:
                raise CorpusError(f"degree must be >= 1, got {degree}", lineno)
            if degree > MAX_DEGREE:
                raise CorpusError(f"degree {degree} exceeds the maximum {MAX_DEGREE}", lineno)
        elif keyword == "gen":
            if name is None or degree is None:
                raise CorpusError("gen before group/degree", lineno)
            try:
                gens.append(parse_cycles(rest, degree))
            except ValueError as exc:
                raise CorpusError(str(exc), lineno) from None
        elif keyword == "end":
            if name is None:
                raise CorpusError("end outside a group stanza", lineno)
            if degree is None:
                raise CorpusError(f"stanza {name!r} has no degree", lineno)
            try:
                group = build_group(degree, gens)
            except GroupTooLargeError as exc:
                raise CorpusError(f"group {name!r}: {exc}", lineno) from None
            records.append(_record(name, group, "file"))
            seen.add(name)
            name = None
        else:
            raise CorpusError(f"unknown keyword {keyword!r}", lineno)
    if name is not None:
        raise CorpusError(f"stanza {name!r} never terminated", start_line)
    return records


def serialize_corpus(records: list[GroupRecord]) -> str:
    """Canonical corpus text; parsing it reproduces identical records."""
    blocks = []
    for rec in records:
        lines = [f"group {rec.name}", f"degree {rec.degree}"]
        lines.extend(f"gen {s}" for s in rec.generator_strings)
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def corpus_digest(records: list[GroupRecord]) -> str:
    return hashlib.sha256(serialize_corpus(records).encode("utf-8")).hexdigest()


def builtin_corpus() -> list[GroupRecord]:
    """The built-in menagerie: 26 groups of order at most 72.

    Cyclic groups C1..C12, the small symmetric/alternating/dihedral groups,
    Q8, SL(2,3), the holomorph of C7 (the order-42 group with degrees
    {1 x6, 6 x1}), its order-21 Frobenius subgroup, and four direct products
    chosen so that every equivalence criterion has both a both-true and a
    both-false witness at some prime.
    """
    frobenius21 = build_group(
        7,
        [
            parse_cycles("(1,2,3,4,5,6,7)", 7),
            # x -> 2x mod 7: the order-3 automorphism of C7
            parse_cycles("(2,3,5)(4,7,6)", 7),
        ],
    )

    named: list[tuple[str, Group]] = []
    for n in range(1, 13):
        named.append((f"C{n}", standard_group("cyclic", n)))
    named.extend(
        [
            ("S3", standard_group("symmetric", 3)),
            ("S4", standard_group("symmetric", 4)),
            ("A4", standard_group("alternating", 4)),
            ("A5", standard_group("alternating", 5)),
            ("D8", standard_group("dihedral", 4)),
            ("D12", standard_group("dihedral", 6)),
            ("Q8", standard_group("quaternion", 8)),
            ("SL(2,3)", standard_group("sl_2_3", 3)),
            ("Hol(C7)", standard_group("holomorph_cyclic_prime", 7)),
            ("C7:C3", frobenius21),
            ("Q8xC3", direct_product(standard_group("quaternion", 8), standard_group("cyclic", 3))),
            ("S3xC5", direct_product(standard_group("symmetric", 3), standard_group("cyclic", 5))),
            ("A4xC2", direct_product(standard_group("alternating", 4), standard_group("cyclic", 2))),
            ("D8xC9", direct_product(standard_group("dihedral", 4), standard_group("cyclic", 9))),
        ]
    )
    return [_record(name, group, "builtin") for name, group in named]
