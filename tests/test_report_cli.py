import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import degclass.group
from degclass.cli import main
from degclass.corpus import parse_corpus
from degclass.criteria import CATALOG
from degclass.group import build_group
from degclass.perm import Permutation
from degclass.report import Report, ReportOptions, run_report

S8_STANZA = """\
group S8
degree 8
gen (1,2,3,4,5,6,7,8)
gen (1,2)
end
"""

C6_STANZA = """\
group C6
degree 6
gen (1,2,3,4,5,6)
end
"""

S4_STANZA = """\
group S4
degree 4
gen (1,2,3,4)
gen (1,2)
end
"""

# sha256 of the `degclass verify --builtin` report; a change to the report
# bytes has to update it deliberately
BUILTIN_REPORT_SHA256 = "50e614070e9556f349133aaef50315675dad0fce411d92db6b387e876808db93"

# the same for `degclass verify --corpus` on the benchmark's nonabelian groups
# (561 verdicts), where the structure oracles do nearly all the work
NONABELIAN_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "nonabelian.txt"
NONABELIAN_REPORT_SHA256 = "6987f4908afde54102cbc4460897ba482b47693513347c01c0cf01d33fd84954"

# and on the benchmark's cyclic and elementary abelian groups, where the
# class-algebra eigensplit does most of the work
DEGREE_REPORT_SHA256 = {
    "cyclic": "42207b60865fd8f14d7e477ca1018222351981268cc97320e8e27456e4153dfc",
    "elementary_abelian": "5e782f60d71b7f8ca40bc0620505977641cab7bedad9e8877564674af20075d4",
}


def test_report_deterministic(corpus, builtin_report):
    again = run_report(corpus)
    assert again.text == builtin_report.text
    assert builtin_report.exit_code == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_does_not_depend_on_the_point_labels(corpus, builtin_report, seed):
    # relabelling the points conjugates every generator, which changes the
    # enumeration, the class order and the split's visiting order, yet no
    # group block may change beyond its generators and source
    rng = random.Random(seed)
    relabelled = []
    for rec in corpus:
        sigma = list(range(rec.degree))
        rng.shuffle(sigma)
        gens = []
        for g in rec.group.generators:
            images = [0] * rec.degree
            for x, y in enumerate(g.images):
                images[sigma[x]] = sigma[y]
            gens.append(Permutation(images))
        relabelled.append(dataclasses.replace(rec, group=build_group(rec.degree, gens)))
    assert any(a.group.elements != b.group.elements for a, b in zip(corpus, relabelled))
    document = run_report(relabelled).document

    def unlabelled(doc):
        return [{k: v for k, v in block.items() if k not in ("generators", "source")} for block in doc["groups"]]

    assert unlabelled(document) == unlabelled(builtin_report.document)
    assert document["summary"] == builtin_report.document["summary"]


def test_report_round_trips_as_json(builtin_report):
    doc = json.loads(builtin_report.text)
    assert json.dumps(doc, indent=2) + "\n" == builtin_report.text
    assert doc["tool"]["name"] == "degclass"


def test_report_writer_matches_json_dumps(builtin_report):
    edge_cases = {
        "empty_dict": {},
        "empty_list": [],
        "none": None,
        "flags": [True, False],
        "nested": {"a": [{}, [], [[]], {"b": None}], "": "x"},
        'quote " and \\ backslash': 'tab\t, newline\n, "quoted" \\ \u00e9\u2013\U0001d11e',
        "\u00fcber": ["\x00\x1f", "plain"],
    }
    for doc in (builtin_report.document, edge_cases, {}, [], "s", None, True):
        assert Report(doc, 0, 0).text == json.dumps(doc, indent=2) + "\n"


def test_report_summary_counts_are_consistent(builtin_report):
    doc = builtin_report.document
    blocks = doc["groups"]
    summary = doc["summary"]
    verdicts = [v for b in blocks if b["skipped"] is None for v in b["verdicts"]]
    assert int(summary["verdict_count"]) == len(verdicts)
    assert int(summary["agreements"]) == sum(1 for v in verdicts if v["agrees"])
    assert int(summary["disagreements"]) == 0
    assert int(summary["experimental_disagreements"]) == sum(
        1 for v in verdicts if v["experimental"] and not v["agrees"]
    )
    assert int(summary["group_count"]) == len(blocks)
    assert all(isinstance(b["order"], str) for b in blocks)


def test_report_has_witnesses_for_every_equivalence(builtin_report):
    witnesses = builtin_report.document["summary"]["equivalence_witnesses"]
    for crit, entry in witnesses.items():
        assert entry["both_true"], f"{crit} has no both-true witness"
        assert entry["both_false"], f"{crit} has no both-false witness"


def test_oversized_group_is_skipped_not_fatal():
    records = parse_corpus(S8_STANZA + "\n" + C6_STANZA)
    report = run_report(records)
    blocks = {b["name"]: b for b in report.document["groups"]}
    assert "exceeds enumeration cap" in blocks["S8"]["skipped"]
    assert blocks["S8"]["order"] == "40320"
    assert blocks["C6"]["skipped"] is None
    assert report.exit_code == 0
    assert report.document["summary"]["skipped"] == "1"


def test_table_budget_hit_is_skipped_not_fatal(monkeypatch, tmp_path, capsys):
    # S4 needs a 24 x 24 table of 2-byte entries; C2 stays under the budget,
    # degree layer included (six int64 arrays of 2 x 2 cells and four of one
    # class's 1 x 2 gather, 256 bytes); the groups are enumerated before the
    # budget is lowered, though S4's enumeration of 960 bytes would fit it
    records = parse_corpus(S4_STANZA + "\ngroup C2\ndegree 2\ngen (1,2)\nend\n")
    monkeypatch.setattr(degclass.group, "TABLE_MAX_BYTES", 24 * 24 * 2 - 1)
    report = run_report(records)
    blocks = {b["name"]: b for b in report.document["groups"]}
    assert blocks["S4"]["skipped"] == (
        "group too large: Cayley table of order 24 needs 1152 bytes, above the table budget of 1151"
    )
    assert "verdicts" not in blocks["S4"]
    assert blocks["C2"]["skipped"] is None
    assert report.document["summary"]["skipped"] == "1"

    path = tmp_path / "corpus.txt"
    path.write_text(S4_STANZA)
    assert main(["verify", "--corpus", str(path)]) in (0, 1)
    doc = json.loads(capsys.readouterr().out)
    assert "above the table budget" in doc["groups"][0]["skipped"]


def test_enumeration_budget_hit_is_skipped_not_fatal(monkeypatch):
    # S4 on 4 points holds 24 * 4 * 10 = 960 bytes once enumerated; C2 on 2
    # points 40, and its table and degree layer stay under the budget too
    monkeypatch.setattr(degclass.group, "TABLE_MAX_BYTES", 24 * 4 * 10 - 1)
    report = run_report(parse_corpus(S4_STANZA + "\ngroup C2\ndegree 2\ngen (1,2)\nend\n"))
    blocks = {b["name"]: b for b in report.document["groups"]}
    assert blocks["S4"]["skipped"] == (
        "the enumeration of order 24 on 4 points needs 960 bytes, above the table budget of 959"
    )
    assert "verdicts" not in blocks["S4"]
    assert blocks["C2"]["skipped"] is None
    assert report.document["summary"]["skipped"] == "1"


def test_abelian_corpus_all_agree():
    report = run_report(parse_corpus(C6_STANZA))
    assert report.exit_code == 0
    assert report.document["summary"]["disagreements"] == "0"


def test_exit_code_reflects_disagreements():
    report = Report(document={}, disagreements=0, experimental_disagreements=3)
    assert report.exit_code == 0
    report = Report(document={}, disagreements=1, experimental_disagreements=0)
    assert report.exit_code == 1


# --- CLI ----------------------------------------------------------------------


def test_cli_verify_builtin_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--builtin", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["disagreements"] == "0"
    err = capsys.readouterr().err
    assert "disagreements" in err


def test_cli_verify_builtin_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--builtin", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILTIN_REPORT_SHA256


def test_cli_verify_nonabelian_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--corpus", str(NONABELIAN_CORPUS), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NONABELIAN_REPORT_SHA256


@pytest.mark.parametrize("name", sorted(DEGREE_REPORT_SHA256))
def test_cli_verify_degree_corpus_report_bytes_are_pinned(tmp_path, name):
    out = tmp_path / "report.json"
    corpus = NONABELIAN_CORPUS.with_name(f"{name}.txt")
    assert main(["verify", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEGREE_REPORT_SHA256[name]


def test_cli_verify_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--builtin", "--out", str(a)]) == 0
    assert main(["verify", "--builtin", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_corpus_file(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text(C6_STANZA)
    code = main(["verify", "--corpus", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["summary"]["group_count"] == "1"


def test_cli_rejects_both_sources(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(C6_STANZA)
    assert main(["verify", "--corpus", str(path), "--builtin"]) == 2


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("group x\ndegree 2\ngen (1,1)\nend\n")
    assert main(["verify", "--corpus", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["verify", "--corpus", str(tmp_path / "missing.txt")]) == 2


def test_cli_non_utf8_corpus_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"group x\ndegree 2 # \xff\nend\n")
    assert main(["verify", "--corpus", str(path)]) == 2
    assert "error: " in capsys.readouterr().err


def test_cli_huge_degree_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("group big\ndegree 1000000000000\ngen (1,2)\nend\n")
    assert main(["verify", "--corpus", str(path)]) == 2
    assert "line 2: degree 1000000000000 exceeds the maximum 100000" in capsys.readouterr().err


def test_cli_empty_corpus_warns_but_succeeds(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert main(["verify", "--corpus", str(path)]) == 0
    assert "empty" in capsys.readouterr().err


def test_cli_invariants(capsys):
    code = main(["invariants", "--group", "Hol(C7)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "order 42" in out
    assert "1 x6  6 x1" in out


def test_cli_degrees(capsys):
    code = main(["degrees", "--group", "S4"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 x2  2 x1  3 x2"


def test_cli_unknown_group(capsys):
    assert main(["degrees", "--group", "M11"]) == 2
    assert "no group named" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "degclass.cli", "degrees", "--group", "Q8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 x4  2 x1"


def test_cli_pi_bound_flag(capsys):
    assert main(["verify", "--builtin", "--pi-bound", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["options"]["pi_bound"] == "1"
    for block in doc["groups"]:
        for v in block["verdicts"]:
            assert len(v["primes"]) <= 1 or v["criterion"] == "nilpotent_residual_index_product"


@pytest.mark.parametrize("command", [["verify", "--builtin"], ["invariants", "--group", "S3"]])
def test_cli_rejects_negative_pi_bound(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--pi-bound", "-1"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_0", "+1", "\u0662", " 2"])
@pytest.mark.parametrize("command", [["verify", "--builtin"], ["invariants", "--group", "S3"]])
def test_cli_pi_bound_takes_ascii_digits_only(capsys, command, text):
    # int() would take every one of these
    with pytest.raises(SystemExit) as exc:
        main([*command, "--pi-bound", text])
    assert exc.value.code == 2
    assert f"--pi-bound: must be >= 0 in decimal digits, got {text!r}" in capsys.readouterr().err


def test_transversal_budget_hit_is_an_input_error(monkeypatch, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text(C6_STANZA + "\ngroup C300\ndegree 300\ngen (" + ",".join(map(str, range(1, 301))) + ")\nend\n")
    monkeypatch.setattr(degclass.group, "TABLE_MAX_BYTES", 300 * 300 * 8 - 1)
    assert main(["verify", "--corpus", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "group 'C300': group too large: the Schreier-Sims transversals on 300 points" in captured.err


def test_report_rejects_negative_pi_bound(corpus):
    with pytest.raises(ValueError, match=">= 0"):
        run_report(corpus[:1], ReportOptions(pi_bound=-1))


def test_cli_criteria_lists_each_row_once(capsys):
    assert main(["criteria"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [line.split()[0] for line in lines[1:]]
    assert ids == [row.id for row in CATALOG]
    for line, row in zip(lines[1:], CATALOG):
        assert row.kind in line and row.scope in line and line.endswith(row.statement)


def test_verify_byte_identical_across_processes(tmp_path):
    # separate interpreter runs get different hash seeds, so this catches any
    # set-iteration order leaking into the report
    outputs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "degclass.cli", "verify", "--builtin", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
