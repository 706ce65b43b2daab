"""ctypes bindings for the compiled kernel.

:class:`NativeKernel` is a thin typed wrapper over the shared object
that :mod:`repro.native.build` compiles: every method validates dtypes
and contiguity, allocates the output arrays, and hands raw pointers to
the C functions (ctypes drops the GIL for the duration of each call, so
the thread-sharded search runs its shards in parallel).  All semantics —
word layout, weight-table layout, integer exactness — are documented on
the C source and on the numpy reference implementations in
:mod:`repro.core.bitset` and :mod:`repro.core.search`, which these calls
are bit-identical to.
"""

from __future__ import annotations

import ctypes
import dataclasses
from collections.abc import Sequence
from pathlib import Path

import numpy as np

__all__ = ["DfsResult", "NativeKernel"]

_U64 = ctypes.POINTER(ctypes.c_uint64)
_I64 = ctypes.POINTER(ctypes.c_int64)


def _u64(array: np.ndarray) -> "ctypes._Pointer":
    return array.ctypes.data_as(_U64)


def _i64(array: np.ndarray) -> "ctypes._Pointer":
    return array.ctypes.data_as(_I64)


def _as_words(array: np.ndarray, name: str) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.uint64)
    if out.ndim > 2:
        raise ValueError(f"{name} must be 1- or 2-dimensional")
    return out


def _as_table(array: np.ndarray, n_words: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.int64)
    if out.size != n_words * 64:
        raise ValueError(
            f"{name} must have n_words * 64 = {n_words * 64} entries, "
            f"got {out.size}"
        )
    return out


#: ``repro_dfs`` return codes.
_DFS_STATUS = {
    0: "complete",
    1: "interrupted",
    -1: "bad_top_cursor",
    -2: "bad_cursor",
    -3: "too_deep",
}
#: Slots of ``repro_dfs``'s io block (the ``REPRO_IO_*`` enum in kernel.c).
_IO_SLOTS = 12
_IO_BEST_Q, _IO_COUNTERS, _IO_BEST_DIRECTION, _IO_BEST_SIZE = 0, slice(1, 5), 5, 6
_IO_DEPTH, _IO_HAS_BOUND, _IO_BOUND, _IO_ERROR_DEPTH, _IO_ERROR_CHILDREN = range(7, 12)
_DIRECTIONS = ("->", "<-", "<->")


@dataclasses.dataclass(frozen=True)
class DfsResult:
    """Outcome of one :meth:`NativeKernel.dfs` call, in fixed point.

    ``status`` is ``"complete"``, ``"interrupted"`` (the node budget
    stopped the traversal; ``path`` and ``cursors`` describe the stacked
    frames and ``frontier_bound`` is the largest ``rub`` of the
    unexplored frontier, ``None`` when it is empty or the search runs
    without ``rub``), or why a checkpoint replay was rejected:
    ``"bad_top_cursor"`` or ``"bad_cursor"`` for the cursor of frame
    ``error_depth`` (which has ``error_children`` children), and
    ``"too_deep"`` for a path deeper than the search can stack.
    ``best`` lists the universe entries of a new incumbent (``None``
    when the incumbent passed in was kept), ``counters`` the cumulative
    ``SearchStats`` counters (visited, pruned by rub, evaluated, skipped
    by qub).
    """

    status: str
    best_q: int
    counters: tuple[int, int, int, int]
    best: tuple[int, ...] | None = None
    direction: str | None = None
    path: tuple[int, ...] = ()
    cursors: tuple[int, ...] = ()
    frontier_bound: int | None = None
    error_depth: int = -1
    error_children: int = -1


class NativeKernel:
    """Typed handle on one loaded build of the C kernel."""

    def __init__(self, library_path: Path) -> None:
        self.path = Path(library_path)
        lib = ctypes.CDLL(str(self.path))
        lib.repro_abi_version.restype = ctypes.c_int64
        lib.repro_abi_version.argtypes = []
        lib.repro_and_popcount.restype = None
        lib.repro_and_popcount.argtypes = [
            _U64, ctypes.c_int64, ctypes.c_int64, _U64, _I64,
        ]
        lib.repro_match_union.restype = None
        lib.repro_match_union.argtypes = [
            _U64, ctypes.c_int64, ctypes.c_int64,
            _U64, _U64, ctypes.c_int64, ctypes.c_int64, _U64,
        ]
        lib.repro_dfs_workspace_bytes.restype = ctypes.c_int64
        lib.repro_dfs_workspace_bytes.argtypes = [ctypes.c_int64] * 3
        lib.repro_dfs.restype = ctypes.c_int64
        lib.repro_dfs.argtypes = [
            _U64, _U64, _U64, _I64, _I64, _I64, _I64, _U64,
            *[ctypes.c_int64] * 9,
            _I64, _I64, ctypes.c_int64,
            _I64, _I64, _I64, _I64,
            ctypes.c_void_p, ctypes.c_int64,
        ]
        self._lib = lib
        self.abi_version = int(lib.repro_abi_version())

    # ------------------------------------------------------------------
    def and_popcount(
        self, rows: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-row ``popcount(rows[i] & mask)`` (``mask=None``: plain)."""
        rows = _as_words(rows, "rows")
        n_rows, n_words = rows.shape
        out = np.empty(n_rows, dtype=np.int64)
        if n_rows == 0:
            return out
        mask_ptr = None
        if mask is not None:
            mask = _as_words(mask, "mask")
            if mask.size != n_words:
                raise ValueError("mask and rows disagree on word count")
            mask_ptr = _u64(mask)
        self._lib.repro_and_popcount(
            _u64(rows), n_rows, n_words, mask_ptr, _i64(out)
        )
        return out

    def match_union(
        self, rows: np.ndarray, ant: np.ndarray, cons: np.ndarray
    ) -> np.ndarray:
        """Fused subset test + consequent union (the bulk predict path)."""
        rows = _as_words(rows, "rows")
        ant = _as_words(ant, "ant")
        cons = _as_words(cons, "cons")
        n_rows, n_words_src = rows.shape
        n_rules = ant.shape[0]
        if ant.shape[1] != n_words_src:
            raise ValueError("rows and antecedents disagree on word count")
        if cons.shape[0] != n_rules:
            raise ValueError("antecedents and consequents disagree on rule count")
        n_words_tgt = cons.shape[1]
        out = np.zeros((n_rows, n_words_tgt), dtype=np.uint64)
        if n_rows and n_words_tgt:
            self._lib.repro_match_union(
                _u64(rows), n_rows, n_words_src,
                _u64(ant), _u64(cons), n_rules, n_words_tgt, _u64(out),
            )
        return out

    def dfs(
        self,
        rows: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        sides: np.ndarray,
        wq: np.ndarray,
        tub_left: np.ndarray,
        tub_right: np.ndarray,
        full: np.ndarray,
        *,
        one: int,
        best_q: int,
        counters: Sequence[int],
        root: tuple[int, int],
        use_rub: bool = True,
        use_qub: bool = True,
        max_rule_size: int | None = None,
        max_nodes: int | None = None,
        path: Sequence[int] = (),
        cursors: Sequence[int] | None = None,
    ) -> DfsResult:
        """The exact search's whole traversal in one call; see ``repro_dfs``.

        ``rows``, ``pos`` and ``neg`` are ``(size, n_words)`` packed rows
        of the search universe in universe order: each entry's
        transaction set and the cells where translating its item gains
        or loses the item's code length.  ``sides`` (0 left, 1 right)
        and ``wq`` (fixed-point code lengths) are per entry;
        ``tub_left`` / ``tub_right`` are the transaction upper bounds
        (never negative) as :func:`~repro.core.bitset.fixed_weight_table`
        layouts and ``full`` is the all-transactions mask.  The traversal
        starts from incumbent gain ``best_q`` and the cumulative
        ``counters``, takes root children in ``[root[0], root[1])`` and
        stops before the node that would exceed ``max_nodes`` in total;
        ``path`` and ``cursors`` resume a stack a budget break returned.
        """
        rows = _as_words(rows, "rows")
        if rows.ndim != 2:
            raise ValueError("rows must be 2-dimensional")
        size, n_words = rows.shape
        pos = _as_words(pos, "pos")
        neg = _as_words(neg, "neg")
        if pos.shape != rows.shape or neg.shape != rows.shape:
            raise ValueError("sign rows and item rows disagree in shape")
        sides = np.ascontiguousarray(sides, dtype=np.int64)
        wq = np.ascontiguousarray(wq, dtype=np.int64)
        if sides.shape != (size,) or wq.shape != (size,):
            raise ValueError("sides and wq need one entry per row")
        if ((sides != 0) & (sides != 1)).any():
            raise ValueError("sides must be 0 (left) or 1 (right)")
        tub_left = _as_table(tub_left, n_words, "tub_left")
        tub_right = _as_table(tub_right, n_words, "tub_right")
        if (tub_left < 0).any() or (tub_right < 0).any():
            # The kernel skips a mass whenever the rest of rub already
            # clears the incumbent, which is exact only for masses >= 0.
            raise ValueError("tub_left and tub_right must be non-negative")
        full = _as_words(full, "full")
        if full.size != n_words:
            raise ValueError("full and rows disagree on word count")
        lo, hi = root
        if not 0 <= lo <= hi <= size:
            raise ValueError(f"root range [{lo}, {hi}) is not inside [0, {size})")
        if max_rule_size is not None and max_rule_size <= 0:
            raise ValueError("max_rule_size must be positive when given")
        path_array = np.ascontiguousarray(path, dtype=np.int64)
        cursor_array = None
        if cursors is not None:
            cursor_array = np.ascontiguousarray(cursors, dtype=np.int64)
            if cursor_array.size != path_array.size + 1 or (cursor_array < 0).any():
                raise ValueError("cursors must be one non-negative entry per frame")
        n_frames = (size if max_rule_size is None else min(max_rule_size, size)) + 1
        workspace = np.empty(
            self._lib.repro_dfs_workspace_bytes(size, n_words, n_frames),
            dtype=np.uint8,
        )
        io = np.zeros(_IO_SLOTS, dtype=np.int64)
        io[_IO_BEST_Q] = best_q
        io[_IO_COUNTERS] = counters
        best = np.zeros(n_frames, dtype=np.int64)
        out_path = np.zeros(n_frames, dtype=np.int64)
        out_cursors = np.zeros(n_frames, dtype=np.int64)
        code = self._lib.repro_dfs(
            _u64(rows), _u64(pos), _u64(neg), _i64(sides), _i64(wq),
            _i64(tub_left), _i64(tub_right), _u64(full),
            size, n_words, int(one), int(use_rub), int(use_qub),
            -1 if max_rule_size is None else max_rule_size,
            -1 if max_nodes is None else max_nodes,
            lo, hi,
            _i64(path_array),
            None if cursor_array is None else _i64(cursor_array),
            path_array.size,
            _i64(io), _i64(best), _i64(out_path), _i64(out_cursors),
            workspace.ctypes.data, n_frames,
        )
        status = _DFS_STATUS[int(code)]
        values = io.tolist()
        result = {
            "status": status,
            "best_q": values[_IO_BEST_Q],
            "counters": tuple(values[_IO_COUNTERS]),
        }
        if status in ("bad_top_cursor", "bad_cursor"):
            result["error_depth"] = values[_IO_ERROR_DEPTH]
            result["error_children"] = values[_IO_ERROR_CHILDREN]
        if status in ("complete", "interrupted") and values[_IO_BEST_DIRECTION] >= 0:
            result["best"] = tuple(best[: values[_IO_BEST_SIZE]].tolist())
            result["direction"] = _DIRECTIONS[values[_IO_BEST_DIRECTION]]
        if status == "interrupted":
            depth = values[_IO_DEPTH]
            result["path"] = tuple(out_path[:depth].tolist())
            result["cursors"] = tuple(out_cursors[: depth + 1].tolist())
            if values[_IO_HAS_BOUND]:
                result["frontier_bound"] = values[_IO_BOUND]
        return DfsResult(**result)

    def __repr__(self) -> str:
        return f"NativeKernel(path={str(self.path)!r}, abi={self.abi_version})"
