"""Fixed-degree corpus similarity graph with a compact binary file format.

Each doc stores its top-k most similar other docs as unsigned 32-bit
internal ids, ordered by descending similarity and padded with a sentinel
when fewer than k exist. At k=8 that is 32 bytes per doc.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .docmap import DocMap

MAGIC = b"GARG"
VERSION = 1
SENTINEL = 0xFFFFFFFF
DEFAULT_K = 8

# rows per block of edge-table validation
_VALIDATE_BLOCK_ROWS = 1 << 16

_HEADER = struct.Struct("<4sIII")  # magic, version, rows, columns; shared with GARV

# provider(internal_id, count) -> up to `count` (internal_id, similarity)
# pairs for the given doc: the doc itself excluded, by similarity descending,
# then internal id ascending. `lexical._top` is the rule both in-repo
# providers apply.
SimilarityProvider = Callable[[int, int], Sequence[tuple[int, float]]]


def graph_file_size(n_docs: int, k: int) -> int:
    """Size in bytes of the edge file for a graph of n_docs docs at degree k."""
    return _HEADER.size + 4 * k * n_docs


class CorpusGraph:
    """Immutable k-nearest-neighbour graph over a corpus.

    `edges` is an (n_docs, k) uint32 table; row d lists the neighbours of
    doc d in descending similarity order, sentinel-padded at the end.
    """

    __slots__ = ("_edges", "_docmap", "_degrees", "_n_edges")

    def __init__(self, edges: np.ndarray, docmap: DocMap):
        self._set(np.asarray(edges), docmap, copy=True)

    def _set(self, edges: np.ndarray, docmap: DocMap, copy: bool) -> None:
        """Validate and keep `edges`. Without `copy`, a C-ordered uint32
        array is kept as it is, so only a caller that owns the array and no
        longer writes to it may pass copy=False."""
        if edges.ndim != 2:
            raise ValueError(f"edge table must be 2-dimensional, got shape {edges.shape}")
        if edges.dtype.kind not in "iu":
            raise ValueError(f"edge table must hold integer ids, got dtype {edges.dtype}")
        n_docs, k = edges.shape
        if n_docs != len(docmap):
            raise ValueError(
                f"edge table has {n_docs} rows but docmap has {len(docmap)} docs"
            )
        # checked in the given dtype before any uint32 copy exists, so no id
        # wraps around and the block temporaries add nothing to the peak of
        # a large table
        self._degrees = self._validate_rows(edges)
        edges = edges.astype(np.uint32, order="C", copy=copy)
        edges.setflags(write=False)
        self._edges = edges
        self._docmap = docmap
        self._n_edges = int(self._degrees.sum())

    @staticmethod
    def _validate_rows(edges: np.ndarray) -> np.ndarray:
        """Degree of every row, after checking the rows, in any integer
        dtype, in blocks that bound the temporaries at any corpus size; a
        block reports the first of its failing checks, in the order listed."""
        n_docs = edges.shape[0]
        degrees = np.empty(n_docs, dtype=np.int64)
        for start in range(0, n_docs, _VALIDATE_BLOCK_ROWS):
            block = edges[start : start + _VALIDATE_BLOCK_ROWS]
            real = block != SENTINEL
            rows = np.arange(start, start + len(block), dtype=np.uint32)[:, None]
            # sorted rows keep the sentinels last, so a duplicate is two equal adjacent real ids
            ordered = np.sort(block, axis=1)
            for bad, message in (
                (real & ((block < 0) | (block >= n_docs)), "has a neighbour id out of range"),
                (block == rows, "contains a self edge"),
                (real[:, 1:] & ~real[:, :-1], "has a neighbour after sentinel padding"),
                ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != SENTINEL), "has duplicate neighbours"),
            ):
                if bad.any():
                    raise ValueError(f"row {start + int(np.argwhere(bad)[0][0])} {message}")
            degrees[start : start + len(block)] = real.sum(axis=1)
        return degrees

    @property
    def n_docs(self) -> int:
        return self._edges.shape[0]

    @property
    def k(self) -> int:
        return self._edges.shape[1]

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def docmap(self) -> DocMap:
        return self._docmap

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def degree(self, doc: int) -> int:
        return int(self._degrees[doc])

    def neighbours(self, doc: int) -> list[int]:
        """Neighbour internal ids of `doc`, most similar first."""
        if not 0 <= doc < self.n_docs:
            raise IndexError(f"internal id out of range: {doc}")
        return self._edges[doc, : self._degrees[doc]].tolist()

    def truncated(self, k: int) -> "CorpusGraph":
        """Graph restricted to each doc's top-k neighbours.

        Valid because rows are stored in descending similarity order, so the
        first k columns of a higher-degree graph are exactly its k-NN graph.
        """
        if not 0 <= k <= self.k:
            raise ValueError(f"cannot truncate degree-{self.k} graph to k={k}")
        return CorpusGraph(self._edges[:, :k], self._docmap)

    # --- binary format: 16-byte header then n_docs*k little-endian uint32 ---

    def save(self, path: str | Path) -> None:
        """Write the edge table to `path` and the docmap to `path`.docs."""
        _write_table(Path(path), MAGIC, "<u4", self._edges, self._docmap)

    @classmethod
    def load(cls, path: str | Path) -> "CorpusGraph":
        graph = cls.__new__(cls)
        # the table read from the file is fresh and read-only: kept uncopied
        graph._set(*_read_table(Path(path), MAGIC, "<u4", "edge"), copy=False)
        return graph


def _write_table(path: Path, magic: bytes, dtype: str, table: np.ndarray, docmap: DocMap) -> None:
    """Write a 2-D table after a 16-byte header, and its docmap to the sidecar."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, *table.shape))
        fh.write(table.astype(dtype).tobytes())
    docmap.save(docmap_path(path))


def _read_table(path: Path, magic: bytes, dtype: str, what: str) -> tuple[np.ndarray, DocMap]:
    """Read-only table and docmap written by `_write_table`; `what` names the
    table in errors."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"truncated header: expected {_HEADER.size} bytes, got {len(header)}")
        got, version, rows, cols = _HEADER.unpack(header)
        if got != magic:
            raise ValueError(f"bad magic: expected {magic!r}, got {got!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version: {version}")
        expected = np.dtype(dtype).itemsize * rows * cols
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise ValueError(f"truncated {what} table: expected {expected} bytes, got {size}")
        # read straight into the array, so the file's bytes are never held
        # beside it
        table = np.fromfile(fh, dtype=dtype, count=rows * cols)
    table.setflags(write=False)
    docmap = DocMap.load(docmap_path(path))
    if len(docmap) != rows:
        raise ValueError(f"docmap lists {len(docmap)} docs but {what} file declares {rows}")
    return table.reshape(rows, cols), docmap


def docmap_path(path: str | Path) -> Path:
    """Sidecar docmap path for a graph or vector file."""
    path = Path(path)
    return path.with_name(path.name + ".docs")


def build_graph(docmap: DocMap, provider: SimilarityProvider, k: int) -> CorpusGraph:
    """Build the k-NN graph from `provider`'s top k for each doc.

    The provider meets the `SimilarityProvider` contract: up to `count`
    pairs, the doc itself excluded, by similarity descending, then internal
    id ascending. Each row is written as given and sentinel-padded; ids
    outside the docmap, more than k ids, self edges and duplicates are
    rejected.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n_docs = len(docmap)
    edges = np.full((n_docs, k), SENTINEL, dtype=np.uint32)
    for doc in range(n_docs):
        row = [other for other, _ in provider(doc, k)]
        unknown = [other for other in row if not 0 <= other < n_docs]
        if unknown:
            raise ValueError(f"similarity provider returned unknown docid {unknown[0]} for doc {doc}")
        if len(row) > k:
            raise ValueError(f"similarity provider returned {len(row)} > k={k} ids for doc {doc}")
        edges[doc, : len(row)] = row
    return CorpusGraph(edges, docmap)
