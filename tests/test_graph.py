from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gar import CorpusGraph, DocMap, build_graph
from gar.graph import _VALIDATE_BLOCK_ROWS, SENTINEL, docmap_path, graph_file_size
from synthdata import random_graph


def make_graph(rows, docids=None):
    edges = np.asarray(rows, dtype=np.uint32)
    ids = docids or [f"d{i}" for i in range(edges.shape[0])]
    return CorpusGraph(edges, DocMap(ids))


def test_neighbours_and_degrees():
    g = make_graph(
        [
            [1, 2, SENTINEL],
            [0, SENTINEL, SENTINEL],
            [SENTINEL, SENTINEL, SENTINEL],
        ]
    )
    assert g.n_docs == 3
    assert g.k == 3
    assert g.neighbours(0) == [1, 2]
    assert g.neighbours(1) == [0]
    assert g.neighbours(2) == []
    assert len(g.neighbours(0)) == 2
    assert len(g.neighbours(2)) == 0
    assert g.n_edges == 3


def test_neighbours_out_of_range():
    g = make_graph([[SENTINEL]])
    with pytest.raises(IndexError):
        g.neighbours(1)


def test_degree_out_of_range():
    # -1 must not wrap around to the last doc's row
    g = make_graph([[1], [SENTINEL]])
    for doc in (-1, 2):
        with pytest.raises(IndexError, match="internal id out of range"):
            len(g.neighbours(doc))
        with pytest.raises(IndexError, match="internal id out of range"):
            g.neighbours(doc)


def test_validation_neighbour_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        make_graph([[5], [SENTINEL]])


def test_validation_rejects_ids_that_would_wrap_in_uint32():
    # 2**32 + 1 would wrap to an edge to doc 1, and -1 to the sentinel
    edges = np.array([[1], [2**32 + 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="row 1 has a neighbour id out of range"):
        CorpusGraph(edges, DocMap(["a", "b"]))
    edges = np.array([[1], [-1]], dtype=np.int64)
    with pytest.raises(ValueError, match="row 1 has a neighbour id out of range"):
        CorpusGraph(edges, DocMap(["a", "b"]))


def test_validation_rejects_negative_id_in_list():
    with pytest.raises(ValueError, match="row 0 has a neighbour id out of range"):
        CorpusGraph([[-1], [0]], DocMap(["a", "b"]))


def test_validation_rejects_float_table():
    with pytest.raises(ValueError, match="must hold integer ids, got dtype float64"):
        CorpusGraph(np.array([[1.9], [0.2]]), DocMap(["a", "b"]))


def test_int64_table_with_sentinel_padding_loads():
    edges = np.array([[1, SENTINEL], [SENTINEL, SENTINEL], [0, 1]], dtype=np.int64)
    g = CorpusGraph(edges, DocMap(["a", "b", "c"]))
    assert g.edges.dtype == np.uint32
    assert g.edges.tolist() == edges.tolist()
    assert [len(g.neighbours(doc)) for doc in range(3)] == [1, 0, 2]


def test_validation_self_edge():
    with pytest.raises(ValueError, match="self edge"):
        make_graph([[0], [SENTINEL]])


def test_validation_neighbour_after_sentinel():
    with pytest.raises(ValueError, match="after sentinel"):
        make_graph([[SENTINEL, 1], [SENTINEL, SENTINEL]])


def test_validation_duplicate_neighbour():
    for rows in ([[1, 1], [SENTINEL] * 2], [[1, 2, 1], [SENTINEL] * 3, [SENTINEL] * 3]):
        with pytest.raises(ValueError, match="row 0 has duplicate"):
            make_graph(rows)


def test_validation_duplicate_in_last_row_of_many_blocks():
    # more rows than one validation block, and only the last row is bad
    n = _VALIDATE_BLOCK_ROWS + 3
    ids = np.arange(n, dtype=np.uint32)
    good = np.stack([(ids + 1) % n, (ids + 2) % n, (ids + 3) % n], axis=1)
    docmap = DocMap(f"d{i}" for i in range(n))
    assert CorpusGraph(good, docmap).n_edges == 3 * n
    faults = [
        (2, good[-1, 0], "has duplicate neighbours"),
        (1, n, "has a neighbour id out of range"),
        (1, n - 1, "contains a self edge"),
        (1, SENTINEL, "has a neighbour after sentinel padding"),
    ]
    for col, value, message in faults:
        edges = good.copy()
        edges[-1, col] = value
        with pytest.raises(ValueError, match=f"row {n - 1} {message}"):
            CorpusGraph(edges, docmap)
    # repeated sentinels are padding, not duplicates
    edges = good.copy()
    edges[0, 1:] = SENTINEL
    edges[-1, 1:] = SENTINEL
    g = CorpusGraph(edges, docmap)
    assert g.n_edges == 3 * n - 4
    assert (len(g.neighbours(0)), len(g.neighbours(1)), len(g.neighbours(n - 1))) == (1, 3, 1)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(1, n - 1), max_size=3), min_size=n, max_size=n)
    )
)
def test_validation_duplicates_match_set_check(offsets):
    # row d lists (d + offset) % n, so no self edges; padded to width 3
    n = len(offsets)
    rows = [[(d + o) % n for o in offs] + [SENTINEL] * (3 - len(offs)) for d, offs in enumerate(offsets)]
    bad = [d for d, row in enumerate(offsets) if len(set(row)) != len(row)]
    if bad:
        with pytest.raises(ValueError, match=f"row {bad[0]} has duplicate"):
            make_graph(rows)
    else:
        assert make_graph(rows).n_edges == sum(map(len, offsets))


def test_validation_row_count_mismatch():
    edges = np.full((2, 1), SENTINEL, dtype=np.uint32)
    with pytest.raises(ValueError, match="docmap"):
        CorpusGraph(edges, DocMap(["only"]))


def test_edges_are_immutable():
    g = make_graph([[1], [SENTINEL]])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 0


def test_loaded_edges_are_immutable(tmp_path):
    path = tmp_path / "graph.bin"
    make_graph([[1], [SENTINEL]]).save(path)
    g = CorpusGraph.load(path)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 0
    with pytest.raises(ValueError):
        g.edges.setflags(write=True)
    assert g.neighbours(0) == [1]


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_graph_keeps_a_copy_of_the_callers_table(dtype):
    edges = np.array([[1, SENTINEL], [0, SENTINEL]], dtype=dtype)
    g = CorpusGraph(edges, DocMap(["a", "b"]))
    edges[0, 1] = 1
    edges[1, 0] = SENTINEL
    assert g.neighbours(0) == [1]
    assert g.neighbours(1) == [0]
    assert g.edges.tolist() == [[1, SENTINEL], [0, SENTINEL]]


def test_zero_degree_graph():
    edges = np.zeros((3, 0), dtype=np.uint32)
    g = CorpusGraph(edges, DocMap(["a", "b", "c"]))
    assert g.k == 0
    assert g.n_edges == 0
    assert g.neighbours(1) == []
    assert len(g.neighbours(1)) == 0


def test_truncated_takes_row_prefixes():
    g = make_graph([[1, 2, 3], [2, 3, SENTINEL], [SENTINEL] * 3, [0, SENTINEL, SENTINEL]])
    t = g.truncated(2)
    assert t.k == 2
    assert t.neighbours(0) == [1, 2]
    assert t.neighbours(1) == [2, 3]
    assert t.neighbours(2) == []
    assert t.docmap == g.docmap
    with pytest.raises(ValueError, match="truncate"):
        g.truncated(4)


def test_file_size_formula():
    assert graph_file_size(10, 8) == 16 + 4 * 8 * 10
    # at the default degree each doc costs 32 bytes of edge table
    assert graph_file_size(1000, 8) - graph_file_size(0, 8) == 32 * 1000


def test_save_load_round_trip(tmp_path):
    rng = random.Random(7)
    g = random_graph(rng, [f"doc{i}" for i in range(40)], k=5)
    path = tmp_path / "graph.bin"
    g.save(path)
    assert path.stat().st_size == graph_file_size(40, 5)
    assert docmap_path(path).exists()
    loaded = CorpusGraph.load(path)
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.docmap == g.docmap
    again = tmp_path / "again.bin"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_load_bad_magic(tmp_path):
    path = tmp_path / "graph.bin"
    g = make_graph([[SENTINEL]])
    g.save(path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"WAT!"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="bad magic"):
        CorpusGraph.load(path)


def test_load_bad_version(tmp_path):
    path = tmp_path / "graph.bin"
    make_graph([[SENTINEL]]).save(path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="unsupported version"):
        CorpusGraph.load(path)


def test_load_truncated_payload(tmp_path):
    path = tmp_path / "graph.bin"
    make_graph([[1, SENTINEL], [SENTINEL, SENTINEL]]).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match="truncated edge table"):
        CorpusGraph.load(path)


@pytest.mark.parametrize("size", [0, 13, 17, 20])
def test_load_table_size_mismatch_messages(tmp_path, size):
    path = tmp_path / "graph.bin"
    make_graph([[1, SENTINEL], [SENTINEL, SENTINEL]]).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + (raw[16:] + bytes(4))[:size])
    with pytest.raises(ValueError, match=f"^truncated edge table: expected 16 bytes, got {size}$"):
        CorpusGraph.load(path)


def test_load_truncated_header(tmp_path):
    path = tmp_path / "graph.bin"
    path.write_bytes(b"GAR")
    with pytest.raises(ValueError, match="truncated header"):
        CorpusGraph.load(path)


def test_load_docmap_count_mismatch(tmp_path):
    path = tmp_path / "graph.bin"
    make_graph([[1, SENTINEL], [SENTINEL, SENTINEL]]).save(path)
    docmap_path(path).write_text("a\nb\nc\n")
    with pytest.raises(ValueError, match="docmap lists 3"):
        CorpusGraph.load(path)


# --- build_graph -----------------------------------------------------------


def dict_provider(sims):
    """Provider backed by {doc: [(other, sim), ...]}, sorted to the provider contract."""

    def provider(doc, count):
        return sorted(sims.get(doc, []), key=lambda p: (-p[1], p[0]))[:count]

    return provider


def test_build_graph_basic():
    sims = {
        0: [(1, 0.9), (2, 0.5)],
        1: [(0, 0.9)],
        2: [(0, 0.5), (1, 0.2)],
    }
    g = build_graph(DocMap(["a", "b", "c"]), dict_provider(sims), k=2)
    assert g.neighbours(0) == [1, 2]
    assert g.neighbours(1) == [0]
    assert g.neighbours(2) == [0, 1]


def test_build_graph_pads_short_rows():
    g = build_graph(DocMap(["a", "b"]), dict_provider({0: [(1, 0.4)]}), k=3)
    assert g.neighbours(0) == [1]
    assert list(g.edges[0]) == [1, SENTINEL, SENTINEL]
    assert g.neighbours(1) == []


def test_build_graph_tie_breaks_by_ascending_id():
    sims = {0: [(3, 0.5), (1, 0.5), (2, 0.5)]}
    g = build_graph(DocMap(["a", "b", "c", "d"]), dict_provider(sims), k=3)
    assert g.neighbours(0) == [1, 2, 3]


def test_build_graph_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be positive"):
        build_graph(DocMap(["a"]), dict_provider({}), k=0)


def test_build_graph_rejects_unknown_provider_id():
    with pytest.raises(ValueError, match="unknown docid 9"):
        build_graph(DocMap(["a", "b"]), dict_provider({0: [(9, 0.1)]}), k=1)


def test_build_graph_asks_for_k_and_writes_rows_as_given():
    asked = []

    def provider(doc, count):
        asked.append(count)
        return [(2, 0.1), (1, 0.9)] if doc == 0 else []

    g = build_graph(DocMap(["a", "b", "c"]), provider, k=2)
    assert asked == [2, 2, 2]
    assert g.neighbours(0) == [2, 1]


def test_build_graph_rejects_provider_self_edge():
    def provider(doc, count):
        return [(doc, 1.0), ((doc + 1) % 3, 0.5)][:count]

    with pytest.raises(ValueError, match="row 0 contains a self edge"):
        build_graph(DocMap(["a", "b", "c"]), provider, k=2)


def test_build_graph_rejects_more_than_k_ids():
    def provider(doc, count):
        return [(other, 0.5) for other in range(3) if other != doc]

    with pytest.raises(ValueError, match="returned 2 > k=1 ids for doc 0"):
        build_graph(DocMap(["a", "b", "c"]), provider, k=1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 64))
def test_file_size_is_header_plus_edge_table(n_docs, k):
    assert graph_file_size(n_docs, k) == 16 + 4 * k * n_docs


@given(st.data())
def test_random_graph_round_trip(tmp_path_factory, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 4))
    g = random_graph(rng, [f"x{i}" for i in range(n)], k)
    path = tmp_path_factory.mktemp("g") / "graph.bin"
    g.save(path)
    loaded = CorpusGraph.load(path)
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.docmap == g.docmap
    assert path.stat().st_size == graph_file_size(n, k)
