import gc
import tracemalloc

import pytest

from degclass import group as groups
from degclass.corpus import (
    CorpusError,
    builtin_corpus,
    corpus_digest,
    parse_corpus,
    serialize_corpus,
)

S3_STANZA = """\
# a tiny corpus
group S3
degree 3
gen (1,2)
gen (1,2,3)
end
"""


def test_parse_single_stanza():
    records = parse_corpus(S3_STANZA)
    assert len(records) == 1
    rec = records[0]
    assert rec.name == "S3"
    assert rec.degree == 3
    assert rec.group.order == 6
    assert rec.generator_strings == ("(1,2)", "(1,2,3)")


def test_parse_trailing_comment_and_blank_lines():
    text = "group C2   # the smallest\n\ndegree 2\ngen (1,2)  # swap\nend\n"
    records = parse_corpus(text)
    assert records[0].group.order == 2


def test_parse_trivial_group_stanza():
    records = parse_corpus("group C1\ndegree 5\nend\n")
    assert records[0].group.order == 1


def test_repeated_point_rejected_with_line_number():
    text = "group bad\ndegree 3\ngen (1,1,2)\nend\n"
    with pytest.raises(CorpusError, match="line 3.*repeated point"):
        parse_corpus(text)


def test_degree_overflow_rejected():
    text = "group bad\ndegree 3\ngen (1,4)\nend\n"
    with pytest.raises(CorpusError, match="line 3.*outside"):
        parse_corpus(text)


def test_huge_degree_rejected_before_parsing_generators():
    text = "group big\ndegree 1000000000000\ngen (1,2)\nend\n"
    with pytest.raises(CorpusError, match="line 2: degree 1000000000000 exceeds the maximum"):
        parse_corpus(text)


def test_transversals_are_refused_within_the_table_budget(monkeypatch):
    # C1000 on its own points holds 1000 image tuples of 1000 points, 8 MB of
    # transversal; a budget of 1 MB refuses it at its 126th orbit point
    budget = 10**6
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", budget)
    text = "group C1000\ndegree 1000\ngen (" + ",".join(map(str, range(1, 1001))) + ")\nend\n"
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(CorpusError) as refused:
            parse_corpus(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "line 4: group 'C1000': group too large: the Schreier-Sims transversals on 1000 points "
        "need more than 1008000 bytes, above the table budget of 1000000"
    )
    assert peak < 1.25 * budget


def test_duplicate_name_rejected():
    text = S3_STANZA + "\n" + S3_STANZA
    with pytest.raises(CorpusError, match="duplicate group name"):
        parse_corpus(text)


@pytest.mark.parametrize(
    "text,match",
    [
        ("degree 3\n", "outside a group"),
        ("group a\ngen (1,2)\nend\n", "gen before"),
        ("group a\ndegree 2\n", "never terminated"),
        ("group a\ndegree 2\ndegree 3\nend\n", "degree given twice"),
        ("group a b\ndegree 2\nend\n", "single-token"),
        ("frobnicate\n", "unknown keyword"),
        ("group a\ndegree zero\nend\n", "bad degree"),
        ("group a\ndegree 1_2\nend\n", "bad degree"),
        ("group a\ndegree +3\nend\n", "bad degree"),
        ("group a\ndegree \u0663\nend\n", "bad degree"),
    ],
)
def test_malformed_stanzas(text, match):
    with pytest.raises(CorpusError, match=match):
        parse_corpus(text)


def test_empty_corpus_is_fine():
    assert parse_corpus("") == []
    assert parse_corpus("# only comments\n\n") == []


def test_round_trip_is_canonical(corpus):
    text = serialize_corpus(corpus)
    reparsed = parse_corpus(text)
    assert [r.name for r in reparsed] == [r.name for r in corpus]
    assert [r.generator_strings for r in reparsed] == [r.generator_strings for r in corpus]
    assert serialize_corpus(reparsed) == text
    assert corpus_digest(reparsed) == corpus_digest(corpus)


def test_builtin_contents(corpus):
    names = {rec.name for rec in corpus}
    assert len(corpus) >= 25
    assert len(names) == len(corpus)
    for required in ("C12", "S3", "S4", "A4", "A5", "D8", "D12", "Q8", "SL(2,3)",
                     "Hol(C7)", "C7:C3", "Q8xC3", "S3xC5", "A4xC2", "D8xC9"):
        assert required in names
    by_name = {rec.name: rec for rec in corpus}
    assert by_name["Hol(C7)"].group.order == 42
    assert by_name["C7:C3"].group.order == 21
    assert all(rec.group.order <= 600 for rec in corpus)


def test_builtin_groups_have_caches(corpus):
    assert all(rec.group.has_element_cache for rec in corpus)
