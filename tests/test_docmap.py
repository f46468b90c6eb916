from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gar import DocMap

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
