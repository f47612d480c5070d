"""The compiled kernel's build cache (:mod:`repro.core._build`).

Each test copies the C source to a directory of its own, so it builds
into that directory's ``__pycache__`` and never touches the package's
cache; loads run in fresh interpreters, which load each library once.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import _build

LOAD = """
import sys
from pathlib import Path
from repro.core import _build
module = _build.load(Path(sys.argv[1]))
print(module.__file__)
"""


def loader(source, **env):
    """A fresh interpreter that loads the kernel built from ``source``
    and prints the library's path."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(Path(_build.__file__).parents[2]), environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, "-c", LOAD, str(source)], env=environ,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def load(source, **env):
    proc = loader(source, **env)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return Path(out.strip())


@pytest.fixture
def source(tmp_path):
    copy = tmp_path / "_compact.c"
    shutil.copyfile(_build.SOURCE, copy)
    return copy


def test_truncated_library_is_rebuilt(source):
    path = load(source)
    assert path == _build.library_path(source)
    assert path.parent == source.parent / "__pycache__"
    intact = path.read_bytes()
    path.write_bytes(intact[: len(intact) // 2])
    assert not _build._intact(path)
    assert load(source) == path
    assert _build._intact(path)


def test_cold_cache_builds_race_to_one_library(source):
    procs = [loader(source) for _ in range(2)]
    paths = set()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        paths.add(out.strip())
    path = _build.library_path(source)
    assert paths == {str(path)} and _build._intact(path)
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_edited_source_gets_a_new_cache_name(source):
    before = _build.library_path(source)
    source.write_text(source.read_text() + "\n/* edited */\n")
    after = _build.library_path(source)
    assert before != after and before.parent == after.parent
    for path in (before, after):
        assert path.name.startswith("_compact.")
        assert path.name.endswith(_build.EXT_SUFFIX)


def test_rebuild_removes_stale_libraries_from_pycache_only(source, tmp_path):
    """A build from edited source leaves exactly one library beside the
    source; the shared user cache keeps one library per source."""
    first = load(source)
    original = source.read_text()
    source.write_text(original + "\n/* edited */\n")
    second = load(source)
    assert second != first and second.parent == first.parent
    assert sorted(p.name for p in second.parent.iterdir()) == [second.name]

    source.write_text(original)
    (source.parent / "__pycache__").rename(source.parent / "moved")
    (source.parent / "__pycache__").write_text("not a directory")
    cache = tmp_path / "cache"
    shared = [load(source, XDG_CACHE_HOME=str(cache))]
    source.write_text(original + "\n/* edited */\n")
    shared.append(load(source, XDG_CACHE_HOME=str(cache)))
    assert sorted(p.name for p in (cache / "repro").iterdir()) == sorted(
        path.name for path in shared)


def test_unwritable_pycache_falls_back_to_the_user_cache(source, tmp_path):
    (source.parent / "__pycache__").write_text("not a directory")
    cache = tmp_path / "cache"
    path = load(source, XDG_CACHE_HOME=str(cache))
    assert path.parent == cache / "repro" and _build._intact(path)


def test_failed_build_names_the_command_and_its_output(source, tmp_path):
    source.write_text(source.read_text() + "\nthis is not C;\n")
    with pytest.raises(_build.KernelBuildError) as failure:
        _build.build(source, tmp_path / "never.so")
    message = str(failure.value)
    assert str(source) in message and "-O3" in message
    assert "error" in message
    assert not (tmp_path / "never.so").exists()
    assert list(tmp_path.glob(".never.so.*")) == []
