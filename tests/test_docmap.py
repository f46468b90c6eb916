from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gar import DocMap, docmap
from oracles import reference_docmap_index, reference_read_docids

DOCID = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)


def test_round_trip_lookups():
    dm = DocMap(["alpha", "beta", "gamma"])
    assert len(dm) == 3
    assert dm.external(0) == "alpha"
    assert dm.external(2) == "gamma"
    assert dm.internal("beta") == 1
    assert dm.get("gamma") == 2
    assert dm.get("missing") is None
    assert "alpha" in dm
    assert "missing" not in dm
    assert list(dm) == ["alpha", "beta", "gamma"]
    assert dm.ids == ("alpha", "beta", "gamma")


def test_unknown_docid_raises():
    dm = DocMap(["a"])
    with pytest.raises(KeyError, match="unknown docid"):
        dm.internal("b")


def test_internal_out_of_range():
    dm = DocMap(["a"])
    with pytest.raises(IndexError):
        dm.external(1)
    with pytest.raises(IndexError):
        dm.external(-1)


def test_duplicate_docid_rejected():
    with pytest.raises(ValueError, match="duplicate docid"):
        DocMap(["a", "b", "a"])


def test_empty_docmap_rejected():
    with pytest.raises(ValueError, match="empty"):
        DocMap([])


def test_empty_docid_rejected():
    with pytest.raises(ValueError, match="empty docid"):
        DocMap(["a", ""])


def test_whitespace_docid_rejected():
    for bad in ["a b", "a\tb", "a\n", "a\u00a0b", "a\u2003b", "a\u3000b", "a\x1cb"]:
        with pytest.raises(ValueError, match="whitespace"):
            DocMap([bad])


def test_equality():
    assert DocMap(["a", "b"]) == DocMap(["a", "b"])
    assert DocMap(["a", "b"]) != DocMap(["b", "a"])
    assert DocMap(["a"]) != "a"


def test_save_load_round_trip(tmp_path):
    dm = DocMap([f"doc-{i}" for i in range(50)])
    path = tmp_path / "ids.docs"
    dm.save(path)
    assert DocMap.load(path) == dm


def test_load_without_trailing_newline(tmp_path):
    path = tmp_path / "ids.docs"
    path.write_text("a\nb\nc")
    assert list(DocMap.load(path)) == ["a", "b", "c"]


@given(st.lists(DOCID, min_size=1, max_size=30, unique=True))
def test_lookups_are_inverse(ids):
    dm = DocMap(ids)
    for pos, docid in enumerate(ids):
        assert dm.internal(docid) == pos
        assert dm.external(pos) == docid


@given(st.lists(DOCID, min_size=1, max_size=30, unique=True))
def test_save_load_identity(tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("dm") / "ids.docs"
    dm = DocMap(ids)
    dm.save(path)
    assert DocMap.load(path) == dm


# ids from a few good tokens, the empty id and whitespace of every kind
# str.split knows, Unicode included, so repeats and bad ids land anywhere
MESSY_ID = st.one_of(
    st.sampled_from(["a", "b", "c", "d1", "é", "", " ", "a b", "\x1c", "x\x1dy", "\x1e", "z\x1f",
                     "\x85", "\xa0q", "\u2028", "r\u3000", "\t", "\x0b"]),
    st.text(st.sampled_from("ab\x1c\x1f\x85\xa0\u2028\u3000 "), min_size=1, max_size=3),
)


def _outcome(build):
    """The docmap's ids, or the first error's message."""
    try:
        return list(build())
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(MESSY_ID, max_size=12), st.integers(1, 4))
@example(["a", "b", "", "a", "c d"], 2)
@example(["a", "\u3000", "", "a"], 1)
@example(["a", "b", "a", ""], 3)
def test_docmap_raises_the_first_error_of_the_per_id_loop(ids, block):
    """DocMap(ids) accepts or refuses ids as a check of one id at a time does,
    with the same first message, whatever the whitespace-check block."""
    with mock.patch.object(docmap, "_CHECK_BLOCK_IDS", block):
        got = _outcome(lambda: DocMap(ids))
    assert got == _outcome(lambda: reference_docmap_index(ids))
    if isinstance(got, list):
        dm = DocMap(ids)
        assert [dm.internal(docid) for docid in ids] == list(range(len(ids)))


LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(MESSY_ID, LINE_END), max_size=10),
    st.sampled_from(["", "\n", "\n\n", "\r\n\r\n", "x"]),
    st.integers(1, 6),
)
@example([("a", "\r\n"), ("b", "\r\n")], "", 1)
@example([("a", "\r"), ("b", "\n")], "\n", 2)
@example([("a", "\n"), ("b", "\n")], "\n\n", 1)
@example([("a", "\n"), ("b", "\n")], "x", 3)
def test_load_reads_what_the_line_reader_reads(tmp_path_factory, lines, tail, block):
    """DocMap.load gives the ids, or the error, of a line-at-a-time read, for
    \\r\\n and lone \\r line ends, trailing blank lines and a last line
    without a newline, whatever the read block."""
    path = tmp_path_factory.mktemp("dm") / "ids.docs"
    path.write_bytes(("".join(docid + end for docid, end in lines) + tail).encode("utf-8"))
    with mock.patch.object(docmap, "_LOAD_BLOCK_CHARS", block):
        got = _outcome(lambda: DocMap.load(path))
    assert got == _outcome(lambda: reference_docmap_index(reference_read_docids(path)))
