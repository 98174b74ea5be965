"""The package's one compiled kernel, built at first use.

``_kernel.c`` is a small extension module: the noise draw
(``noise.PathSampler``) and LAPACK's tridiagonal LDL^T factor and solve
(``fem.dpttrf``, ``engine._dpbtrs``), ported op for op so that they keep
scipy's bits.  The first ``load()`` of a process compiles it with the
Python build's C compiler into this package's ``__pycache__/``, unless it
is cached there, and imports it; importing this module builds and loads
nothing, so a process that only sets up never compiles.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import threading
from pathlib import Path

import numpy as np


class KernelBuildError(RuntimeError):
    """``_kernel.c`` could not be compiled: a fault of the install, not of a run."""


_SOURCE = Path(__file__).with_name("_kernel.c")
# fixed: no -ffast-math, no CFLAGS read, and no FMA contraction, which
# would change the solve's bits wherever FMA is in the baseline (aarch64)
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_lock = threading.Lock()
_module = None  # the loaded extension module


def _build(cc: str, cache_dir: Path) -> Path:
    """The path of ``_kernel.c`` compiled by ``cc`` in ``cache_dir``, built unless cached.

    The library's name holds a hash of the source, the flags, the numpy
    version it links and the Python ABI it is built for.  It is written
    under a temporary name and moved into place, so a process never loads
    another's part-written file; then every other ``_kernel-*.so`` of the
    cache, left by an older source or flags, is removed (a process that has
    one loaded keeps it).  A failed build raises ``KernelBuildError``
    naming the command, the cache path and the tail of the compiler's
    stderr.
    """
    abi = sysconfig.get_config_var("EXT_SUFFIX") or ""
    digest = hashlib.sha256(
        _SOURCE.read_bytes() + " ".join((*_FLAGS, np.__version__, abi)).encode()
    ).hexdigest()[:16]
    library = cache_dir / f"_kernel-{digest}.so"
    if library.exists():
        return library
    temporary = cache_dir / f"{library.name}.{os.getpid()}.tmp"
    npyrandom = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    command = [*shlex.split(cc), *_FLAGS, "-I", np.get_include(),
               "-I", sysconfig.get_paths()["include"], "-o", str(temporary),
               str(_SOURCE), str(npyrandom), "-lm"]
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode == 0:
            os.replace(temporary, library)
            for stale in cache_dir.glob("_kernel-*.so"):
                if stale != library:
                    with contextlib.suppress(OSError):  # housekeeping: the build stands
                        stale.unlink()
            return library
        error = done.stderr
    except OSError as exc:  # no such compiler, or a cache that cannot be written
        error = str(exc)
    temporary.unlink(missing_ok=True)
    tail = "\n".join(error.strip().splitlines()[-10:])
    raise KernelBuildError(
        f"building the C kernel failed: {shlex.join(command)}\ncache: {library}\n{tail}"
    )


def load():
    """The kernel's extension module: built and imported by the first call of a process."""
    global _module
    if _module is None:
        with _lock:
            if _module is None:
                cc = sysconfig.get_config_var("CC") or "cc"
                library = _build(cc, Path(__file__).with_name("__pycache__"))
                name = f"{__package__}._kernel"
                spec = importlib.util.spec_from_file_location(name, str(library))
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                _module = module
    return _module
