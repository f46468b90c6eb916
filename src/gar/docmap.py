"""Bidirectional mapping between external docids and dense internal ids."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

# Internal ids are unsigned 32-bit; the top value is reserved as the
# padding sentinel in edge tables, so a docmap may hold at most 2**32 - 1 docs.
MAX_DOCS = 0xFFFFFFFF

# ids joined per whitespace check, and characters of a sidecar split at a
# time; each bounds the text held at once
_CHECK_BLOCK_IDS = 1 << 16
_LOAD_BLOCK_CHARS = 1 << 20


class DocMap:
    """Ordered set of external docids, addressed by position.

    Internal id i maps to the i-th external id. The mapping is immutable
    after construction and safe to share across threads.
    """

    __slots__ = ("_ids", "_index")

    def __init__(self, docids: Iterable[str]):
        ids = tuple(docids)
        if not ids:
            raise ValueError("docmap is empty")
        if len(ids) >= MAX_DOCS:
            raise ValueError(f"too many docs for a 32-bit docmap: {len(ids)}")
        index = dict(zip(ids, range(len(ids))))
        if not (len(index) == len(ids) and "" not in index and _all_tokens(ids)):
            index = _checked_index(ids)
        self._ids = ids
        self._index = index

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, docid: str) -> bool:
        return docid in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocMap):
            return NotImplemented
        return self._ids == other._ids

    def __repr__(self) -> str:
        return f"DocMap({len(self._ids)} docs)"

    def external(self, internal: int) -> str:
        """External docid for an internal id."""
        if not 0 <= internal < len(self._ids):
            raise IndexError(f"internal id out of range: {internal}")
        return self._ids[internal]

    def internal(self, docid: str) -> int:
        """Internal id for an external docid; KeyError if unknown."""
        try:
            return self._index[docid]
        except KeyError:
            raise KeyError(f"unknown docid: {docid!r}") from None

    def get(self, docid: str) -> int | None:
        """Internal id for an external docid, or None if unknown."""
        return self._index.get(docid)

    @property
    def ids(self) -> Sequence[str]:
        return self._ids

    # --- sidecar file format: one external docid per line, utf-8 ---

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for docid in self._ids:
                fh.write(docid)
                fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "DocMap":
        """Read a sidecar, one docid per line, with universal newlines; one
        trailing empty line is dropped, as `save` writes none."""
        ids: list[str] = []
        rest = ""
        with open(path, "r", encoding="utf-8") as fh:
            while chunk := fh.read(_LOAD_BLOCK_CHARS):
                lines = (rest + chunk).split("\n")
                rest = lines.pop()
                ids.extend(lines)
        if rest:  # a last line without a newline
            ids.append(rest)
        if ids and ids[-1] == "":
            ids.pop()
        return cls(ids)


def _all_tokens(ids: Sequence[str]) -> bool:
    """Whether no id holds whitespace, by `str.split` on the ids joined a
    block at a time."""
    for start in range(0, len(ids), _CHECK_BLOCK_IDS):
        joined = "".join(ids[start : start + _CHECK_BLOCK_IDS])
        if joined.split() != [joined]:
            return False
    return True


def _checked_index(ids: Sequence[str]) -> dict[str, int]:
    """docid -> position, raising on the first empty, whitespace-holding or
    repeated docid."""
    index: dict[str, int] = {}
    for pos, docid in enumerate(ids):
        if not docid:
            raise ValueError(f"empty docid at position {pos}")
        if docid.split() != [docid]:
            raise ValueError(f"docid contains whitespace: {docid!r}")
        if docid in index:
            raise ValueError(f"duplicate docid: {docid!r}")
        index[docid] = pos
    return index
