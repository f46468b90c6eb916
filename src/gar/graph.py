"""Fixed-degree corpus similarity graph with a compact binary file format.

Each doc stores its top-k most similar other docs as unsigned 32-bit
internal ids, ordered by descending similarity and padded with a sentinel
when fewer than k exist. At k=8 that is 32 bytes per doc.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .docmap import DocMap

MAGIC = b"GARG"
VERSION = 1
SENTINEL = 0xFFFFFFFF
DEFAULT_K = 8

# rows per block of the duplicate-neighbour check
_VALIDATE_BLOCK_ROWS = 1 << 16

_HEADER = struct.Struct("<4sIII")  # magic, version, rows, columns; shared with GARV

# provider(internal_id, count) -> up to `count` (internal_id, similarity)
# pairs for the given doc, most similar first; may include the doc itself.
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
        edges = np.asarray(edges, dtype=np.uint32)
        if edges.ndim != 2:
            raise ValueError(f"edge table must be 2-dimensional, got shape {edges.shape}")
        n_docs, k = edges.shape
        if n_docs != len(docmap):
            raise ValueError(
                f"edge table has {n_docs} rows but docmap has {len(docmap)} docs"
            )
        self._validate_rows(edges)
        edges = edges.copy()
        edges.setflags(write=False)
        self._edges = edges
        self._docmap = docmap
        self._degrees = (edges != SENTINEL).sum(axis=1).astype(np.int64)
        self._n_edges = int(self._degrees.sum())

    @staticmethod
    def _validate_rows(edges: np.ndarray) -> None:
        n_docs, k = edges.shape
        if k == 0:
            return
        real = edges != SENTINEL
        bad = real & (edges >= n_docs)
        if bad.any():
            row = int(np.argwhere(bad)[0][0])
            raise ValueError(f"row {row} has a neighbour id out of range")
        rows = np.arange(n_docs, dtype=np.uint32)[:, None]
        if (edges == rows).any():
            row = int(np.argwhere(edges == rows)[0][0])
            raise ValueError(f"row {row} contains a self edge")
        # sentinels must be trailing padding only
        if k > 1 and (real[:, 1:] & ~real[:, :-1]).any():
            row = int(np.argwhere(real[:, 1:] & ~real[:, :-1])[0][0])
            raise ValueError(f"row {row} has a neighbour after sentinel padding")
        # sorted rows keep the sentinels last, so a duplicate is two equal
        # adjacent real ids; blocks bound the sorted copy at any corpus size
        for start in range(0, n_docs, _VALIDATE_BLOCK_ROWS):
            block = np.sort(edges[start : start + _VALIDATE_BLOCK_ROWS], axis=1)
            dup = (block[:, 1:] == block[:, :-1]) & (block[:, 1:] != SENTINEL)
            if dup.any():
                row = start + int(np.argwhere(dup)[0][0])
                raise ValueError(f"row {row} has duplicate neighbours")

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
        return cls(*_read_table(Path(path), MAGIC, "<u4", "edge"))


def _write_table(path: Path, magic: bytes, dtype: str, table: np.ndarray, docmap: DocMap) -> None:
    """Write a 2-D table after a 16-byte header, and its docmap to the sidecar."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, *table.shape))
        fh.write(table.astype(dtype).tobytes())
    docmap.save(docmap_path(path))


def _read_table(path: Path, magic: bytes, dtype: str, what: str) -> tuple[np.ndarray, DocMap]:
    """Table and docmap written by `_write_table`; `what` names the table in errors."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"truncated header: expected {_HEADER.size} bytes, got {len(header)}")
        got, version, rows, cols = _HEADER.unpack(header)
        if got != magic:
            raise ValueError(f"bad magic: expected {magic!r}, got {got!r}")
        if version != VERSION:
            raise ValueError(f"unsupported version: {version}")
        payload = fh.read()
    expected = np.dtype(dtype).itemsize * rows * cols
    if len(payload) != expected:
        raise ValueError(f"truncated {what} table: expected {expected} bytes, got {len(payload)}")
    table = np.frombuffer(payload, dtype=dtype).reshape(rows, cols)
    docmap = DocMap.load(docmap_path(path))
    if len(docmap) != rows:
        raise ValueError(f"docmap lists {len(docmap)} docs but {what} file declares {rows}")
    return table, docmap


def docmap_path(path: str | Path) -> Path:
    """Sidecar docmap path for a graph or vector file."""
    path = Path(path)
    return path.with_name(path.name + ".docs")


def build_graph(docmap: DocMap, provider: SimilarityProvider, k: int) -> CorpusGraph:
    """Build the k-NN graph by querying `provider` for each doc's top k+1.

    The provider is asked for k+1 candidates so the doc itself can be
    discarded when present. Ties are broken by ascending internal id and
    rows are sentinel-padded when fewer than k neighbours exist.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n_docs = len(docmap)
    edges = np.full((n_docs, k), SENTINEL, dtype=np.uint32)
    for doc in range(n_docs):
        cands = []
        for other, sim in provider(doc, k + 1):
            if not 0 <= other < n_docs:
                raise ValueError(
                    f"similarity provider returned unknown docid {other} for doc {doc}"
                )
            if other != doc:
                cands.append((other, float(sim)))
        cands.sort(key=lambda pair: (-pair[1], pair[0]))
        for col, (other, _) in enumerate(cands[:k]):
            edges[doc, col] = other
    return CorpusGraph(edges, docmap)
