"""Command-line interface.

Exit codes: 0 = all non-experimental verdicts agree, 1 = some disagreement,
2 = input error.  The report goes to stdout (or --out); diagnostics go to
stderr so the report stream stays byte-deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arith import factorization, pi_sets
from .corpus import CorpusError, GroupRecord, builtin_corpus, parse_corpus
from .criteria import CATALOG, GroupData
from .group import GroupTooLargeError
from .perm import parse_decimal
from .report import ReportOptions, run_report

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT_ERROR = 2


def _load_corpus(args: argparse.Namespace) -> list[GroupRecord]:
    if getattr(args, "corpus", None) and getattr(args, "builtin", False):
        raise CorpusError("choose either --corpus or --builtin, not both")
    if getattr(args, "corpus", None):
        try:
            text = Path(args.corpus).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{args.corpus}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        records = parse_corpus(text)
        if not records:
            print("warning: corpus is empty", file=sys.stderr)
        return records
    return builtin_corpus()


def _cmd_verify(args: argparse.Namespace) -> int:
    records = _load_corpus(args)
    report = run_report(records, ReportOptions(pi_bound=args.pi_bound))
    if args.out:
        Path(args.out).write_text(report.text, encoding="utf-8")
    else:
        sys.stdout.write(report.text)
    summary = report.document["summary"]
    print(
        f"{summary['group_count']} groups, {summary['verdict_count']} verdicts, "
        f"{summary['disagreements']} disagreements "
        f"({summary['experimental_disagreements']} experimental)",
        file=sys.stderr,
    )
    return report.exit_code


def _find_group(args: argparse.Namespace) -> GroupRecord:
    records = _load_corpus(args)
    for rec in records:
        if rec.name == args.group:
            return rec
    raise CorpusError(f"no group named {args.group!r} in the corpus")


def _format_factorization(order: int) -> str:
    return " * ".join(f"{p}^{e}" for p, e in factorization(order).items()) or "1"


def _cmd_invariants(args: argparse.Namespace) -> int:
    rec = _find_group(args)
    data = GroupData(rec.group, rec.name)
    print(f"group {rec.name}  order {rec.group.order} = {_format_factorization(rec.group.order)}")
    print("degrees m:", "  ".join(f"{d} x{m}" for d, m in data.degree_frequency.entries))
    print("class sizes w:", "  ".join(f"{n} x{c}" for n, c in data.size_frequency.entries))
    print(f"{'pi':<12} {'u_pi':>12} {'|S_pi|':>12}")
    for ps in pi_sets(data.primes, args.pi_bound):
        label = "{" + ",".join(str(p) for p in ps) + "}"
        print(f"{label:<12} {data.u(ps):>12} {data.s(ps):>12}")
    return EXIT_OK


def _cmd_degrees(args: argparse.Namespace) -> int:
    rec = _find_group(args)
    data = GroupData(rec.group, rec.name)
    print("  ".join(f"{d} x{m}" for d, m in data.degree_frequency.entries))
    return EXIT_OK


def _cmd_criteria(args: argparse.Namespace) -> int:
    width = max(len(row.id) for row in CATALOG)
    print(f"{'id':<{width}}  {'kind':<12}  {'scope':<10}  {'experimental':<12}  statement")
    for row in CATALOG:
        print(f"{row.id:<{width}}  {row.kind:<12}  {row.scope:<10}  {row.experimental:<12}  {row.statement}")
    return EXIT_OK


def non_negative_int(text: str) -> int:
    """A bound written as corpus numbers are: ASCII decimal digits only."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be >= 0 in decimal digits, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degclass",
        description="Exact degree/class-size invariants of finite permutation groups "
        "and verification of the structural criteria they detect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="evaluate every criterion over a corpus")
    verify.add_argument("--corpus", help="corpus file in stanza format")
    verify.add_argument("--builtin", action="store_true", help="use the built-in corpus (default)")
    verify.add_argument("--pi-bound", type=non_negative_int, default=2, dest="pi_bound",
                        help="largest prime-set size for pi-parameterized checks (default 2)")
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.set_defaults(func=_cmd_verify)

    invariants = sub.add_parser("invariants", help="print m, w, u_pi and |S_pi| for one group")
    invariants.add_argument("--group", required=True)
    invariants.add_argument("--corpus", help="corpus file (default: built-in corpus)")
    invariants.add_argument("--pi-bound", type=non_negative_int, default=2, dest="pi_bound")
    invariants.set_defaults(func=_cmd_invariants, builtin=False)

    degrees = sub.add_parser("degrees", help="print the character degree frequency of one group")
    degrees.add_argument("--group", required=True)
    degrees.add_argument("--corpus", help="corpus file (default: built-in corpus)")
    degrees.set_defaults(func=_cmd_degrees, builtin=False)

    criteria = sub.add_parser("criteria", help="list every criterion of the catalog")
    criteria.set_defaults(func=_cmd_criteria)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, OSError, GroupTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
