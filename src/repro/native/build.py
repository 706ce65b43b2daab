"""On-demand compilation of the native kernel with the system C compiler.

The shared object is built once per *content* — the cache key hashes the
C source, the compiler identity and the flag set — under a per-user build
directory, so repeated imports, test runs and concurrent processes reuse
one artifact.  Builds are atomic (temp name + ``os.replace``), so two
processes racing the same key cannot hand out a half-written library.

No compiler, a failing compile, or ``REPRO_NATIVE_DISABLE=1`` all
degrade to :class:`NativeBuildError`; every consumer treats that as
"no C kernel" and runs its numpy path — the library never *requires* a
toolchain.

Environment knobs::

    REPRO_NATIVE_DISABLE=1   pretend no compiler exists: every consumer
                             runs its numpy path
    REPRO_NATIVE_CC=cc       compiler executable to use
    REPRO_NATIVE_CACHE=DIR   build-cache directory
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["NativeBuildError", "build_library", "compiler_path", "source_path"]

#: Exported C symbols must match this stamp (see kernel.c).
ABI_VERSION = 3

_BASE_FLAGS = ["-O3", "-fPIC", "-shared", "-std=c99"]
#: Tried first, dropped if the compiler rejects them (portability).
_OPT_FLAGS = ["-march=native", "-funroll-loops"]

_COMPILER_CANDIDATES = ("cc", "gcc", "clang")


class NativeBuildError(RuntimeError):
    """The native kernel could not be compiled (no/broken C toolchain)."""


def source_path() -> Path:
    """Path of the bundled C source."""
    return Path(__file__).resolve().parent / "kernel.c"


def compiler_path() -> str | None:
    """Resolve the C compiler executable, or ``None`` when there is none.

    Honours ``REPRO_NATIVE_CC`` first, then tries ``cc``/``gcc``/``clang``
    on ``PATH``; ``REPRO_NATIVE_DISABLE=1`` reports no compiler at all.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE", "").strip() not in ("", "0"):
        return None
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        return shutil.which(override) or override
    for candidate in _COMPILER_CANDIDATES:
        found = shutil.which(candidate)
        if found:
            return found
    return None


def cache_dir() -> Path:
    """Build-cache directory (created on demand)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-native"


def _cache_key(source: bytes, cc: str, flags: list[str]) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(cc.encode("utf-8", "replace"))
    digest.update(" ".join(flags).encode("utf-8"))
    digest.update(f"abi={ABI_VERSION}".encode("ascii"))
    return digest.hexdigest()[:16]


def _compile(cc: str, source: Path, output: Path, flags: list[str]) -> None:
    command = [cc, *flags, "-o", str(output), str(source)]
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=120
    )
    if result.returncode != 0:
        raise NativeBuildError(
            f"C compile failed ({' '.join(command)}):\n{result.stderr.strip()}"
        )


def build_library(force: bool = False) -> Path:
    """Compile (or reuse) the shared object; returns its path.

    Raises :class:`NativeBuildError` when no compiler is available or the
    compile fails — callers treat that as "no C kernel".
    """
    cc = compiler_path()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found (tried $REPRO_NATIVE_CC, cc, gcc, clang; "
            "REPRO_NATIVE_DISABLE honoured) — the numpy paths remain "
            "fully functional"
        )
    source = source_path()
    try:
        source_bytes = source.read_bytes()
    except OSError as error:
        raise NativeBuildError(f"cannot read kernel source {source}: {error}") from error
    flags = _BASE_FLAGS + _OPT_FLAGS
    key = _cache_key(source_bytes, cc, flags)
    directory = cache_dir()
    target = directory / f"repro-kernel-{key}.so"
    if target.is_file() and not force:
        return target
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise NativeBuildError(f"cannot create build cache {directory}: {error}") from error
    handle, temp_name = tempfile.mkstemp(
        dir=directory, prefix=".build-", suffix=".so"
    )
    os.close(handle)
    try:
        try:
            _compile(cc, source, Path(temp_name), flags)
        except NativeBuildError:
            # Retry without the optional flags (-march=native is not
            # universal); a second failure is a real toolchain problem.
            flags = list(_BASE_FLAGS)
            _compile(cc, source, Path(temp_name), flags)
            key = _cache_key(source_bytes, cc, flags)
            target = directory / f"repro-kernel-{key}.so"
            if target.is_file() and not force:
                return target
        os.replace(temp_name, target)
    except (OSError, subprocess.SubprocessError) as error:
        raise NativeBuildError(f"native build failed: {error}") from error
    finally:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
    return target
