"""The C engine: a small kernel, compiled on demand (optional).

The exact search spends its time in a depth-first traversal that visits
hundreds of thousands of nodes, and the packed-bitset kernel of
:mod:`repro.core.bitset` tops out on BLAS for very large transaction
counts.  This package runs both in a small dependency-free C kernel
(``kernel.c``) exposing

* the exact search's whole traversal — frames, ``rub``/``qub`` pruning,
  fixed-point gains, the DFS-order tie-break, the node budget and
  checkpoint capture and replay — as one reentrant, GIL-releasing call
  per search (:meth:`NativeKernel.dfs`),
* fused AND + popcount over row batches (column-store scans),
* a fused subset test + consequent union (bulk predict).

The shared object is compiled once with the system ``cc`` and cached by
content hash (:mod:`repro.native.build`).  Whether it loads is the only
thing that selects the engine: every consumer runs the C kernel when
:func:`load_kernel` returns one and its numpy path, which is
bit-identical, when the build fails *softly* — :func:`available` then
returns ``False`` and :func:`native_error` explains why.
``REPRO_NATIVE_DISABLE=1`` makes a process take that numpy path.
"""

from __future__ import annotations

import threading

from repro.native.api import NativeKernel
from repro.native.build import NativeBuildError, build_library, compiler_path

__all__ = [
    "NativeBuildError",
    "NativeKernel",
    "available",
    "build_info",
    "load_kernel",
    "native_error",
    "reset",
]

_lock = threading.Lock()
_state: dict[str, object] = {"kernel": None, "error": None, "attempted": False}


def load_kernel() -> NativeKernel:
    """Compile (once) and load the native kernel.

    The first call per process attempts the build; the outcome — a
    loaded :class:`~repro.native.api.NativeKernel` or a
    :class:`~repro.native.build.NativeBuildError` — is cached, so
    repeated calls are cheap either way.  Raises the cached error when
    the toolchain is unavailable.
    """
    with _lock:
        if not _state["attempted"]:
            _state["attempted"] = True
            try:
                _state["kernel"] = NativeKernel(build_library())
            except NativeBuildError as error:
                _state["error"] = error
            except OSError as error:  # dlopen of a foreign/corrupt object
                _state["error"] = NativeBuildError(
                    f"compiled kernel failed to load: {error}"
                )
        if _state["kernel"] is None:
            raise _state["error"]  # type: ignore[misc]
        return _state["kernel"]  # type: ignore[return-value]


def available() -> bool:
    """Whether the C kernel can be used in this process."""
    try:
        load_kernel()
    except NativeBuildError:
        return False
    return True


def native_error() -> str | None:
    """Why the C kernel is unavailable (``None`` when it works)."""
    if available():
        return None
    return str(_state["error"])


def build_info() -> dict[str, object]:
    """Diagnostics: availability, compiler, library path, ABI version."""
    info: dict[str, object] = {
        "available": available(),
        "compiler": compiler_path(),
    }
    kernel = _state["kernel"]
    if isinstance(kernel, NativeKernel):
        info["library"] = str(kernel.path)
        info["abi_version"] = kernel.abi_version
    else:
        info["error"] = native_error()
    return info


def reset() -> None:
    """Forget the cached build outcome (tests re-probe the toolchain)."""
    with _lock:
        _state["kernel"] = None
        _state["error"] = None
        _state["attempted"] = False
