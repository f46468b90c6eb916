"""Bidirectional mapping between external docids and dense internal ids."""

from __future__ import annotations

import itertools
import operator
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Internal ids are unsigned 32-bit; the top value is reserved as the
# padding sentinel in edge tables, so a docmap may hold at most 2**32 - 1 docs.
MAX_DOCS = 0xFFFFFFFF

# characters of id text checked and hashed at a time, in whole ids, which
# bounds the id strings held at once
_BLOCK_CHARS = 1 << 18

# The index sorts ids by this hash. Any str -> int function gives exact
# lookups, as every probe is confirmed against the text.
_hash = hash

# what a str may hold and UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")

_NEWLINES = itertools.repeat("\n")


class DocMap:
    """Ordered set of external docids, addressed by position.

    Internal id i maps to the i-th external id. The map is held as read-only
    columns: `_text`, the ids each followed by "\\n"; `_starts`, where each id
    starts in the text, then the text's length; `_hashes`, the ids' hashes
    in ascending order; and `_order`, the position of each sorted hash. An id
    is found by binary search over the hashes and confirmed against the text.
    `lookup` and `names` map a batch at a time; every other accessor calls
    one of them. The mapping is immutable and safe to share across threads.
    """

    __slots__ = ("_text", "_starts", "_hashes", "_order")

    def __init__(self, docids: Iterable[str]):
        ids = docids if isinstance(docids, (list, tuple)) else list(docids)
        self._build("\n".join([*ids, ""]), len(ids), lambda: ids)

    def _build(self, text: str, count: int, ids: Callable[[], Sequence[str]]) -> None:
        """Set the columns from `text`, which should hold `count` ids, each
        followed by "\\n"; it is checked and hashed a block of whole ids at a
        time. An empty, whitespace-holding, surrogate-holding or repeated id
        is reported by the per-id loop over `ids()`."""
        if text.count("\n") != count or (not text.isascii() and _SURROGATE.search(text)):
            _raise_first_error(ids())
        if not count:
            raise ValueError("docmap is empty")
        if count >= MAX_DOCS:
            raise ValueError(f"too many docs for a 32-bit docmap: {count}")
        starts = np.zeros(count + 1, np.uint32 if len(text) <= 0xFFFFFFFF else np.uint64)
        hashes = np.empty(count, np.int64)
        done = begin = 0
        while begin < len(text):
            end = text.find("\n", min(begin + _BLOCK_CHARS, len(text)) - 1) + 1
            block = text[begin:end]
            block_ids = block.split()
            n = len(block_ids)
            lengths = np.fromiter(map(len, block_ids), np.int64, n)
            # the block holds n newlines and nothing else that splits it
            if not (n == block.count("\n") and int(lengths.sum()) + n == len(block)):
                _raise_first_error(ids())
            hashes[done : done + n] = np.fromiter(map(_hash, block_ids), np.int64, n)
            starts[done + 1 : done + n + 1] = np.cumsum(lengths + 1) + begin
            done += n
            begin = end
        # the last block's id strings go first, and the hashes are sorted in
        # place, so the peak holds one column twice at most
        del block, block_ids
        self._order = hashes.argsort().astype(np.uint32)
        hashes.sort()
        self._text = text
        self._starts = starts
        self._hashes = hashes
        for column in (self._starts, self._hashes, self._order):
            column.setflags(write=False)
        # a repeat has equal hashes, so it sits in a run of equal adjacent hashes
        tied = np.flatnonzero(hashes[1:] == hashes[:-1])
        if tied.size:
            names = self.names(self._order[np.union1d(tied, tied + 1)])
            if len(set(names)) < len(names):
                _raise_first_error(ids())

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, docid: str) -> bool:
        return self.lookup((docid,))[0] is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocMap):
            return NotImplemented
        return self._text == other._text

    def __repr__(self) -> str:
        return f"DocMap({len(self)} docs)"

    def __reduce__(self):
        # str hashes differ between processes, so a copy rebuilds its index
        return DocMap, (self.ids,)

    def lookup(self, docids: Sequence[str]) -> list[int | None]:
        """Internal id of each docid, None for one not in the map."""
        want = np.fromiter(map(_hash, docids), np.int64, len(docids))
        at = self._hashes.searchsorted(want)
        out = self._order.take(at, mode="clip").tolist()
        # the id at a found start equals a docid free of "\n" if the text
        # there starts with the docid and "\n"
        starts = map(memoryview(self._starts).__getitem__, out)
        try:
            matched = list(map(self._text.startswith, map(operator.add, docids, _NEWLINES), starts))
        except TypeError:  # a docid that is not a str is in no map
            matched = [False] * len(docids)
        if all(matched) and "\n" not in "".join(docids):
            return out
        for i, docid in enumerate(docids):
            if not matched[i] or "\n" in docid:
                out[i] = self._find(docid, int(want[i]), int(at[i]))
        return out

    def _find(self, docid: str, h: int, at: int) -> int | None:
        """Position of `docid` among the ids hashed `h`, which start at `at`
        in hash order, or None."""
        hashes, order = self._hashes, self._order
        while at < len(hashes) and hashes[at] == h:
            if self.names((order[at],)) == [docid]:
                return int(order[at])
            at += 1
        return None

    def names(self, internal_ids: Sequence[int]) -> list[str]:
        """External docid of each internal id; IndexError if one is out of range."""
        ids = internal_ids.tolist() if isinstance(internal_ids, np.ndarray) else list(internal_ids)
        if ids and not (0 <= min(ids) and max(ids) < len(self)):
            bad = next(i for i in ids if not 0 <= i < len(self))
            raise IndexError(f"internal id out of range: {bad}")
        text, starts = self._text, memoryview(self._starts)
        # each id ends one before the next one starts, at its "\n"
        return [text[starts[i] : starts[i + 1] - 1] for i in ids]

    def external(self, internal: int) -> str:
        """External docid for an internal id."""
        return self.names((internal,))[0]

    def internal(self, docid: str) -> int:
        """Internal id for an external docid; KeyError if unknown."""
        found = self.lookup((docid,))[0]
        if found is None:
            raise KeyError(f"unknown docid: {docid!r}")
        return found

    @property
    def ids(self) -> tuple[str, ...]:
        """Every id in internal order, as a tuple built on each call."""
        ids = self._text.split("\n")
        ids.pop()
        return tuple(ids)

    # --- sidecar file format: one external docid per line, utf-8 ---

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._text)

    @classmethod
    def load(cls, path: str | Path) -> "DocMap":
        """Read a sidecar, one docid per line, with universal newlines; one
        trailing empty line is dropped, as `save` writes none."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        # the text is copied only to end the last line or drop an empty one
        if text and not text.endswith("\n"):
            text += "\n"
        elif text == "\n" or text.endswith("\n\n"):
            text = text[:-1]
        docmap = cls.__new__(cls)
        docmap._build(text, text.count("\n"), lambda: text.split("\n")[:-1])
        return docmap


def _raise_first_error(ids: Sequence[str]) -> None:
    """Raise on the first empty, whitespace-holding, surrogate-holding or repeated docid."""
    seen: set[str] = set()
    for pos, docid in enumerate(ids):
        if not docid:
            raise ValueError(f"empty docid at position {pos}")
        if docid.split() != [docid]:
            raise ValueError(f"docid contains whitespace: {docid!r}")
        if _SURROGATE.search(docid):
            raise ValueError(f"docid holds a surrogate, which UTF-8 cannot encode: {docid!r}")
        if docid in seen:
            raise ValueError(f"duplicate docid: {docid!r}")
        seen.add(docid)
