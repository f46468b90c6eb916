from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gar import DocMap, docmap
from oracles import reference_docmap_index, reference_read_docids

DOCID = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)

# valid ids over all of Unicode but surrogates, with ids that differ only by
# a trailing NUL and non-ASCII letters drawn often
UNICODE_ID = st.one_of(
    st.sampled_from(["a", "a\x00", "\x00", "é", "e\u0301", "日本", "ß", "\U0001f600x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
).filter(lambda docid: docid.split() == [docid])
# probes: the same ids, and strings no docmap holds, with whitespace or empty
PROBE = st.one_of(UNICODE_ID, st.sampled_from(["", "a\n", "a\na\x00", "a\n\x00", " ", "é\u3000"]))


def test_round_trip_lookups():
    dm = DocMap(["alpha", "beta", "gamma"])
    assert len(dm) == 3
    assert dm.external(0) == "alpha"
    assert dm.external(2) == "gamma"
    assert dm.internal("beta") == 1
    assert dm.lookup(("gamma",))[0] == 2
    assert dm.lookup(("missing",))[0] is None
    assert "alpha" in dm
    assert "missing" not in dm
    assert list(dm) == ["alpha", "beta", "gamma"]
    assert dm.ids == ("alpha", "beta", "gamma")


def test_unknown_docid_raises():
    dm = DocMap(["a"])
    with pytest.raises(KeyError, match="unknown docid"):
        dm.internal("b")
    # an id that is not a str is unknown too
    with pytest.raises(KeyError, match="unknown docid: 5"):
        dm.internal(5)
    assert dm.lookup((5,))[0] is None and 5 not in dm
    assert dm.lookup(["a", 5, "b"]) == [0, None, None]


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


def test_surrogate_docid_rejected():
    # a sidecar is UTF-8, so a graph saved with such an id would lose its ids
    with pytest.raises(ValueError, match=r"docid holds a surrogate, which UTF-8 cannot encode: 'b\\ud800'"):
        DocMap(["a", "b\ud800"])


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


# ids from a few good tokens, the empty id, a surrogate and whitespace of every
# kind str.split knows, Unicode included, so repeats and bad ids land anywhere
MESSY_ID = st.one_of(
    st.sampled_from(["a", "b", "c", "d1", "é", "", " ", "a b", "\x1c", "x\x1dy", "\x1e", "z\x1f",
                     "\x85", "\xa0q", "\u2028", "r\u3000", "\t", "\x0b", "\ud800"]),
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
@example(["a", "b\ud800", "a"], 2)
def test_docmap_raises_the_first_error_of_the_per_id_loop(ids, block):
    """DocMap(ids) accepts or refuses ids as a check of one id at a time does,
    with the same first message, whatever the block size."""
    with mock.patch.object(docmap, "_BLOCK_CHARS", block):
        got = _outcome(lambda: DocMap(ids))
    assert got == _outcome(lambda: reference_docmap_index(ids))
    if isinstance(got, list):
        dm = DocMap(ids)
        assert [dm.internal(docid) for docid in ids] == list(range(len(ids)))


LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
# a UTF-8 file holds no surrogate
LINE_ID = MESSY_ID.filter(lambda docid: "\ud800" not in docid)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(LINE_ID, LINE_END), max_size=10),
    st.sampled_from(["", "\n", "\n\n", "\r\n\r\n", "x"]),
    st.integers(1, 6),
)
@example([("a", "\r\n"), ("b", "\r\n")], "", 1)
@example([("a", "\r"), ("b", "\n")], "\n", 2)
@example([("a", "\n"), ("b", "\n")], "\n\n", 1)
@example([("a", "\n"), ("b", "\n")], "x", 3)
@example([], "\n", 1)
@example([], "\n\n", 1)
def test_load_reads_what_the_line_reader_reads(tmp_path_factory, lines, tail, block):
    """DocMap.load gives the ids, or the error, of a line-at-a-time read, for
    \\r\\n and lone \\r line ends, trailing blank lines and a last line
    without a newline, whatever the block size."""
    path = tmp_path_factory.mktemp("dm") / "ids.docs"
    path.write_bytes(("".join(docid + end for docid, end in lines) + tail).encode("utf-8"))
    with mock.patch.object(docmap, "_BLOCK_CHARS", block):
        got = _outcome(lambda: DocMap.load(path))
    assert got == _outcome(lambda: reference_docmap_index(reference_read_docids(path)))


def _per_id_save(ids, path):
    """The sidecar as a writer of one id and one newline at a time writes it."""
    with open(path, "w", encoding="utf-8") as fh:
        for docid in ids:
            fh.write(docid)
            fh.write("\n")


def _check_against_dict(ids, probes):
    dm = DocMap(ids)
    index = reference_docmap_index(ids)
    assert len(dm) == len(ids)
    assert dm.ids == tuple(ids)
    assert list(dm) == ids
    assert dm.names(range(len(ids))) == ids
    assert dm.names(list(reversed(range(len(ids))))) == ids[::-1]
    assert dm.lookup(ids) == list(range(len(ids)))
    assert dm.lookup(probes) == [index.get(docid) for docid in probes]
    for pos, docid in enumerate(ids):
        assert dm.external(pos) == docid
        assert dm.internal(docid) == pos
    for docid in probes:
        assert dm.lookup((docid,))[0] == index.get(docid)
        assert (docid in dm) == (docid in index)
        if docid not in index:
            with pytest.raises(KeyError, match="unknown docid"):
                dm.internal(docid)


@settings(max_examples=200, deadline=None)
@given(st.lists(UNICODE_ID, min_size=1, max_size=20, unique=True), st.lists(PROBE, max_size=12))
@example(["a", "a\x00"], ["a\x00", "a", "a\x00\x00", "a\n"])
@example(["a", "b"], ["a\nb", "a\n", "ab"])
def test_lookups_match_a_dict_on_unicode_ids(ids, probes):
    _check_against_dict(ids, probes)


@settings(max_examples=100, deadline=None)
@given(st.lists(UNICODE_ID, min_size=1, max_size=12, unique=True), st.lists(PROBE, max_size=8))
@example(["a", "b"], ["a\nb", "b\na"])
def test_lookups_stay_exact_when_every_hash_is_equal(ids, probes):
    """With one hash for every id, each probe is settled by the text alone."""
    with mock.patch.object(docmap, "_hash", lambda docid: 7):
        _check_against_dict(ids, probes)


@settings(max_examples=100, deadline=None)
@given(st.lists(UNICODE_ID, min_size=1, max_size=10), st.integers(1, 4))
@example(["a", "b", "c", "b"], 1)
def test_equal_hashes_give_the_same_duplicate_error(ids, block):
    with mock.patch.object(docmap, "_BLOCK_CHARS", block):
        with mock.patch.object(docmap, "_hash", lambda docid: 7):
            got = _outcome(lambda: DocMap(ids))
    assert got == _outcome(lambda: reference_docmap_index(ids))


def test_names_rejects_out_of_range_ids():
    dm = DocMap(["a", "b"])
    assert dm.names([]) == []
    assert dm.lookup([]) == []
    for bad in ([2], [0, -1], [1, 5, -3]):
        first = next(i for i in bad if not 0 <= i < 2)
        with pytest.raises(IndexError, match=f"internal id out of range: {first}"):
            dm.names(bad)
    assert dm.names(np.array([1, 0], dtype=np.uint32)) == ["b", "a"]


def test_the_map_is_read_only(tmp_path):
    """A write to any array the map holds raises, as its text cannot change."""
    path = tmp_path / "ids.docs"
    DocMap(["a", "b", "c"]).save(path)
    for dm in (DocMap(["a", "b", "c"]), DocMap.load(path)):
        arrays = [getattr(dm, slot) for slot in DocMap.__slots__ if isinstance(getattr(dm, slot), np.ndarray)]
        assert len(arrays) == 3
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert dm.lookup(["c", "a"]) == [2, 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(UNICODE_ID, min_size=1, max_size=20, unique=True))
def test_save_writes_the_bytes_of_a_per_id_writer(tmp_path_factory, ids):
    folder = tmp_path_factory.mktemp("dm")
    DocMap(ids).save(folder / "map.docs")
    _per_id_save(ids, folder / "ref.docs")
    assert (folder / "map.docs").read_bytes() == (folder / "ref.docs").read_bytes()
    assert DocMap.load(folder / "map.docs") == DocMap(ids)


def test_a_copy_rebuilds_its_index():
    import pickle

    dm = DocMap(["x", "é", "a\x00"])
    copy = pickle.loads(pickle.dumps(dm))
    assert copy == dm
    assert copy.lookup(["a\x00", "é", "a"]) == [2, 1, None]


def test_load_keeps_at_most_40_bytes_per_id(tmp_path):
    """The loaded map of 100,000 short ids holds columns, not an object per
    id. On the way it holds the text once and one block of id strings at a
    time: about 65 bytes per id at the peak, where reading the sidecar in
    chunks and joining them took about 114."""
    n = 100_000
    path = tmp_path / "ids.docs"
    path.write_text("".join(f"doc{i}\n" for i in range(n)), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dm = DocMap.load(path)
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(dm) == n and dm.lookup(("doc99999",))[0] == n - 1
    assert kept <= 40 * n, f"{kept / n:.1f} bytes per id"
    assert peak <= 72 * n, f"{peak / n:.1f} bytes per id at the peak"

