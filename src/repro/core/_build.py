"""Build, cache and load the compiled ``COMPACT`` kernel (``_compact.c``).

The first import compiles the C source with the interpreter's own
compiler settings from :mod:`sysconfig` (``LDSHARED``, ``CCSHARED`` and
the Python headers) plus fixed portable flags: no ``-march=native``, so
a cached library runs on any machine of the interpreter's platform.
The library is cached in ``__pycache__`` beside the source, or in the
user cache directory when that is not writable, under a name carrying a
hash of the source and the fixed flags, and the interpreter's
``EXT_SUFFIX``: an edited source or another interpreter gets a library
of its own.  A build into ``__pycache__`` removes the libraries earlier
sources left there; the user cache directory is shared by every
installed copy, so a build there removes nothing.

A build writes a temporary file and moves it into place with
:func:`os.replace`, so processes building at once each install a whole
library.  The library's last 32 bytes are the SHA-256 of the bytes
before them (the dynamic loader ignores bytes past the segments it
maps); a cached library whose digest does not match, such as a
truncated file, is built again rather than loaded.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import List

SOURCE = Path(__file__).with_name("_compact.c")
MODULE = "repro.core._compact"
EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
FLAGS = ("-O3", "-DNDEBUG", "-fvisibility=hidden")
_DIGEST = 32


class KernelBuildError(ImportError):
    """The compiled kernel could not be built; the message carries the
    compiler command and its output."""


def compile_command(source: Path, target: Path) -> List[str]:
    """The command that compiles and links ``source`` into ``target``."""
    config = sysconfig.get_config_vars()
    paths = sysconfig.get_paths()
    includes = dict.fromkeys([paths["include"], paths["platinclude"]])
    return [
        *shlex.split(config["LDSHARED"]),
        *shlex.split(config.get("CCSHARED") or ""),
        *FLAGS,
        *(f"-I{path}" for path in includes),
        str(source),
        "-o",
        str(target),
    ]


def library_path(source: Path = SOURCE) -> Path:
    """Where the library built from ``source`` is cached."""
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    name = f"{source.stem}.{digest.hexdigest()[:16]}{EXT_SUFFIX}"
    directory = source.parent / "__pycache__"
    try:
        directory.mkdir(exist_ok=True)
        writable = os.access(directory, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        directory = Path(cache) / "repro"
    return directory / name


def _intact(path: Path) -> bool:
    try:
        data = path.read_bytes()
    except OSError:
        return False
    body, digest = data[:-_DIGEST], data[-_DIGEST:]
    return len(data) > _DIGEST and hashlib.sha256(body).digest() == digest


def build(source: Path, target: Path) -> None:
    """Compile ``source`` into ``target``, replacing it atomically."""
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(
        prefix=f".{target.name}.", dir=target.parent)
    os.close(handle)
    command = compile_command(source, Path(partial))
    try:
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            output, failed = str(exc), True
        else:
            output, failed = done.stdout + done.stderr, done.returncode != 0
        if failed:
            raise KernelBuildError(
                "building the COMPACT kernel failed; a C compiler and the "
                f"Python headers are required.\n$ {shlex.join(command)}\n"
                f"{output}"
            )
        with open(partial, "ab") as library:
            library.write(hashlib.sha256(Path(partial).read_bytes()).digest())
        os.chmod(partial, 0o755)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def load(source: Path = SOURCE) -> ModuleType:
    """The kernel module built from ``source``, built first if no intact
    library is cached."""
    path = library_path(source)
    if not _intact(path):
        build(source, path)
        if path.parent == source.parent / "__pycache__":
            for stale in path.parent.glob(f"{source.stem}.*{EXT_SUFFIX}"):
                if stale != path:
                    stale.unlink(missing_ok=True)
    loader = importlib.machinery.ExtensionFileLoader(MODULE, str(path))
    spec = importlib.util.spec_from_file_location(MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
