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


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for a report's dicts, lists, strings,
    booleans and None, byte for byte, without the slow encoder indent picks."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, list):
        items, ends = [inner + _json(v, inner) for v in value], "[]"
    else:
        return {"None": "null", "True": "true", "False": "false"}[repr(value)]
    return ends[0] + ",".join(items) + indent + ends[1] if items else ends


def _s(n: int) -> str:
    return str(n)


def _verdict_block(v: CriterionVerdict) -> dict:
    def side(s) -> dict:
        return {
            "holds": s.holds,
            "numbers": {k: _s(x) for k, x in s.numbers},
        }

    return {
        "criterion": v.criterion,
        "primes": [_s(p) for p in v.primes],
        "kind": v.kind,
        "experimental": v.experimental,
        "invariant": side(v.invariant_side),
        "structure": side(v.structure_side),
        "agrees": v.agrees,
    }


def _group_block(rec: GroupRecord, options: ReportOptions) -> tuple[dict, list[CriterionVerdict]]:
    group = rec.group
    block: dict = {
        "name": rec.name,
        "source": rec.source,
        "degree": _s(rec.degree),
        "generators": list(rec.generator_strings),
        "order": _s(group.order),
        "factorization": [[_s(p), _s(e)] for p, e in factorization(group.order).items()],
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
    block["class_count"] = _s(len(classes))
    block["degree_frequency"] = [[_s(d), _s(m)] for d, m in degrees.entries]
    block["class_size_frequency"] = [[_s(n), _s(c)] for n, c in data.size_frequency.entries]

    block["invariant_tables"] = [
        {
            "pi": [_s(p) for p in ps],
            "u_pi": _s(data.u(ps)),
            "s_pi": _s(data.s(ps)),
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
        "options": {"pi_bound": _s(options.pi_bound)},
        "corpus_digest": corpus_digest(records),
        "groups": groups,
        "summary": {
            "group_count": _s(len(records)),
            "evaluated": _s(len(records) - skipped),
            "skipped": _s(skipped),
            "verdict_count": _s(len(all_verdicts)),
            "agreements": _s(agreements),
            "disagreements": _s(disagreements),
            "experimental_verdicts": _s(len(experimental)),
            "experimental_disagreements": _s(exp_disagreements),
            "equivalence_witnesses": {
                crit: witnesses[crit] for crit in sorted(witnesses)
            },
        },
    }
    return Report(document, disagreements, exp_disagreements)
