"""Deterministic report generation over a corpus.

The report is a single JSON document with stable key order and every number
serialized as a decimal string, so unbounded integers survive a round trip
exactly and two runs over the same corpus are byte-identical.  Groups whose
order exceeds the enumeration cap, or whose Cayley table or degree layer
exceeds the table budget, are recorded as skipped with a reason and do not
abort the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import __version__
from .arith import factorization, pi_sets
from .corpus import GroupRecord, corpus_digest
from .criteria import EQUIVALENCE, CriterionVerdict, GroupData, run_all_criteria
from .group import GroupTooLargeError


@dataclass(frozen=True)
class ReportOptions:
    pi_bound: int = 2


@dataclass
class Report:
    """A finished report: the document plus the summary counters the CLI needs."""

    document: dict
    disagreements: int
    experimental_disagreements: int

    @property
    def text(self) -> str:
        return _json(self.document) + "\n"

    @property
    def exit_code(self) -> int:
        return 0 if self.disagreements == 0 else 1


class _Escaped(dict):
    """Each string's JSON form followed by ``suffix``, made on its first lookup."""

    def __init__(self, suffix: str = ""):
        self.suffix = suffix

    def __missing__(self, text: str) -> str:
        out = self[text] = encode_basestring_ascii(text) + self.suffix
        return out


_LITERALS = {None: "null", True: "true", False: "false"}


def _json(document) -> str:
    """json.dumps(document, indent=2) for a report's dicts, lists, strings,
    booleans and None, byte for byte, without the slow encoder indent picks.

    One pass appends the pieces to a list, dispatching on each value's exact
    type; each distinct string is escaped once per call, and the separators
    of each nesting depth are made once."""
    escaped, keys = _Escaped(), _Escaped(": ")
    layouts: list[tuple[str, str, str, str]] = []  # per depth: newline, comma, closings
    pieces: list[str] = []
    put = pieces.append

    def write(value, depth: int) -> None:
        kind = type(value)
        if kind is dict or kind is list:
            if not value:
                put("{}" if kind is dict else "[]")
                return
            if depth == len(layouts):
                inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
                layouts.append((inner, "," + inner, outer + "}", outer + "]"))
            separator, comma, close_dict, close_list = layouts[depth]
            put("{" if kind is dict else "[")
            for item in value.items() if kind is dict else value:
                put(separator)
                separator = comma
                if kind is dict:
                    put(keys[item[0]])
                    item = item[1]
                if type(item) is str:
                    put(escaped[item])
                elif type(item) is bool or item is None:
                    put(_LITERALS[item])
                else:
                    write(item, depth + 1)
            put(close_dict if kind is dict else close_list)
        elif kind is str:
            put(escaped[value])
        elif kind is bool or value is None:
            put(_LITERALS[value])
        else:
            raise TypeError(f"the report writer takes no {kind.__name__}: {value!r}")

    write(document, 0)
    return "".join(pieces)


def _verdict_block(v: CriterionVerdict) -> dict:
    inv, struct = v.invariant_side, v.structure_side
    return {
        "criterion": v.criterion,
        "primes": [str(p) for p in v.primes],
        "kind": v.kind,
        "experimental": v.experimental,
        "invariant": {"holds": inv.holds, "numbers": {k: str(x) for k, x in inv.numbers}},
        "structure": {"holds": struct.holds, "numbers": {k: str(x) for k, x in struct.numbers}},
        "agrees": v.agrees,
    }


def _group_block(rec: GroupRecord, options: ReportOptions) -> tuple[dict, list[CriterionVerdict]]:
    group = rec.group
    block: dict = {
        "name": rec.name,
        "source": rec.source,
        "degree": str(rec.degree),
        "generators": list(rec.generator_strings),
        "order": str(group.order),
        "factorization": [[str(p), str(e)] for p, e in factorization(group.order).items()],
    }
    if not group.has_element_cache:
        block["skipped"] = group.uncached_reason
        return block, []

    data = GroupData(group, rec.name)
    try:
        classes = data.classes
        degrees = data.degree_frequency
    except GroupTooLargeError as exc:
        block["skipped"] = str(exc)
        return block, []
    block["skipped"] = None
    block["class_count"] = str(len(classes))
    block["degree_frequency"] = [[str(d), str(m)] for d, m in degrees.entries]
    block["class_size_frequency"] = [[str(n), str(c)] for n, c in data.size_frequency.entries]

    block["invariant_tables"] = [
        {
            "pi": [str(p) for p in ps],
            "u_pi": str(data.u(ps)),
            "s_pi": str(data.s(ps)),
        }
        for ps in pi_sets(data.primes, options.pi_bound)
    ]

    verdicts = run_all_criteria(data, rec.name, pi_bound=options.pi_bound)
    block["verdicts"] = [_verdict_block(v) for v in verdicts]
    return block, verdicts


def run_report(records: list[GroupRecord], options: ReportOptions = ReportOptions()) -> Report:
    """Evaluate every group and assemble the document in corpus order."""
    groups = []
    all_verdicts: list[CriterionVerdict] = []
    skipped = 0
    for rec in records:
        block, verdicts = _group_block(rec, options)
        groups.append(block)
        all_verdicts.extend(verdicts)
        if block["skipped"] is not None:
            skipped += 1

    agreements = sum(1 for v in all_verdicts if v.agrees)
    experimental = [v for v in all_verdicts if v.experimental]
    exp_disagreements = sum(1 for v in experimental if not v.agrees)
    disagreements = sum(1 for v in all_verdicts if not v.agrees and not v.experimental)

    witnesses: dict[str, dict[str, list[str]]] = {}
    for v in all_verdicts:
        if v.kind != EQUIVALENCE or v.experimental:
            continue
        entry = witnesses.setdefault(v.criterion, {"both_true": [], "both_false": []})
        tag = f"{v.group_name}@{','.join(str(p) for p in v.primes)}"
        if v.invariant_side.holds and v.structure_side.holds:
            entry["both_true"].append(tag)
        elif not v.invariant_side.holds and not v.structure_side.holds:
            entry["both_false"].append(tag)

    document = {
        "tool": {"name": "degclass", "version": __version__},
        "options": {"pi_bound": str(options.pi_bound)},
        "corpus_digest": corpus_digest(records),
        "groups": groups,
        "summary": {
            "group_count": str(len(records)),
            "evaluated": str(len(records) - skipped),
            "skipped": str(skipped),
            "verdict_count": str(len(all_verdicts)),
            "agreements": str(agreements),
            "disagreements": str(disagreements),
            "experimental_verdicts": str(len(experimental)),
            "experimental_disagreements": str(exp_disagreements),
            "equivalence_witnesses": {
                crit: witnesses[crit] for crit in sorted(witnesses)
            },
        },
    }
    return Report(document, disagreements, exp_disagreements)
