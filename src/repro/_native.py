"""Build and load the package's compiled ports of its hot loops.

Two C files port hot loops with the same float operations as the Python
code they port: the family dispatch loop (``simulator/_dispatch.c``, bound
by :func:`repro.simulator.engine._native_loops`) and the GP library
(``gp/_lml.c``), whose likelihood is bound by
:func:`repro.gp.regression._compiled_lml` and whose candidate scorer by
:func:`repro.gp.regression._compiled_scorer`, each with its own
self-check.  All go through this module:

* :func:`build` compiles a source with the system ``cc`` and one recipe,
  :data:`_CFLAGS` (``-O2 -ffp-contract=off``: no fused multiply-adds, so
  every float operation rounds as it does in NumPy; linked with
  :data:`_LDLIBS`, libm), into
  ``$XDG_CACHE_HOME/repro-ribbon/`` (default ``~/.cache/repro-ribbon/``),
  named by a hash of the source, the flags and the interpreter, so a host
  compiles each file once (~0.1 s);
* :func:`load` applies one fallback rule: the library must build, load,
  bind and pass its caller's bit-equality self-check against the Python
  code it ports.  Otherwise the caller gets None and runs that Python
  code, with identical results.

Nothing is built or loaded at import: each caller loads its library at
its first use.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

#: The one compile recipe; -ffp-contract=off forbids fused multiply-adds.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: Linked after the source: the GP library takes ``exp``, ``log`` and
#: ``sqrt`` from libm.
_LDLIBS = ("-lm",)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-ribbon"


def build(package: str, filename: str) -> Path:
    """Compile ``filename`` of ``package`` into the user cache unless a
    library built from the same source, flags and interpreter is there."""
    source = resources.files(package).joinpath(filename).read_bytes()
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    host = f"{sys.implementation.cache_tag}-{platform.machine()}"
    digest = hashlib.sha256(
        b"\0".join([source, " ".join(_CFLAGS + _LDLIBS).encode(), host.encode()])
    ).hexdigest()[:16]
    stem = Path(filename).stem
    target = _cache_dir() / f"{stem}-{host}-{digest}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src, out = Path(tmp, filename), Path(tmp, target.name)
        src.write_bytes(source)
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(out), str(src), *_LDLIBS],
            check=True, capture_output=True, timeout=120,
        )
        # Atomic: a concurrent build of the same source just wins or loses.
        os.replace(out, target)
    return target


def load(
    package: str,
    filename: str,
    bind: Callable[[ctypes.CDLL], T],
    agrees: Callable[[T], bool],
) -> T | None:
    """``bind(library)`` if ``filename`` builds, loads and binds and the
    bound object passes ``agrees``, else None (the caller's Python code
    runs).  ``bind`` signals a missing symbol or runtime dependency with
    ``AttributeError``, ``ImportError``, ``LookupError`` or ``ValueError``."""
    try:
        bound = bind(ctypes.CDLL(str(build(package, filename))))
    except (
        OSError, RuntimeError, subprocess.SubprocessError, AttributeError,
        ImportError, LookupError, ValueError,
    ):
        return None
    return bound if agrees(bound) else None
