"""Repo lint gates (source-text checks, no runtime behaviour).

Two rules.  Wall-clock reads go through
:mod:`repro.observability.clock` — direct ``time.time()`` /
``time.perf_counter()`` / ``time.monotonic()`` calls outside
``observability/`` would reintroduce the simulated-ms / wall-ms
conflation the clock module exists to prevent.  And the engine's
hot-path packages (``nn/``, ``wasm/``, ``runtime/``) may not grow new
module-level mutable globals: PR 7 made the engine thread-safe by
excising exactly that class of state (the no-grad flag, the geometry
cache dict, the popcount totals), and any new unsynchronized module
global would silently reintroduce cross-thread races.  The audited
survivors — import-time-frozen registries and lock-guarded caches —
are allowlisted by file and name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories whose Python sources must use observability.clock.
_CHECKED_ROOTS = ("src/repro", "benchmarks", "examples")

#: The only place allowed to touch the stdlib clock.
_ALLOWED = ("src/repro/observability/",)

_DIRECT_CLOCK = re.compile(
    r"\btime\.(?:time|perf_counter|perf_counter_ns|monotonic|monotonic_ns|process_time)\s*\("
)


def _python_sources() -> list[Path]:
    files: list[Path] = []
    for root in _CHECKED_ROOTS:
        files.extend(sorted((REPO_ROOT / root).rglob("*.py")))
    assert files, "lint roots resolved to no files — layout changed?"
    return files


@pytest.mark.obs
def test_no_direct_wall_clock_outside_observability():
    offenders = []
    for path in _python_sources():
        rel = path.relative_to(REPO_ROOT).as_posix()
        if rel.startswith(_ALLOWED):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if _DIRECT_CLOCK.search(line):
                offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        "direct wall-clock calls found (use repro.observability.clock):\n"
        + "\n".join(offenders)
    )


# ----------------------------------------------------------------------
# Mutable module-level globals in engine hot-path packages
# ----------------------------------------------------------------------
#: Packages whose module globals must stay immutable-after-import (or be
#: explicitly audited for thread safety and allowlisted below).
_HOT_PATH_ROOTS = ("src/repro/nn", "src/repro/wasm", "src/repro/runtime")

#: Calls whose results are mutable containers.
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "bytearray",
}

#: Audited survivors, keyed by repo-relative path.  Each entry is either
#: a module-level name bound to a mutable container, or ``"global X"``
#: for a function that rebinds module state.  Every one is safe for a
#: stated reason: frozen after import (registries/preset tables) or
#: mutated only under a module lock.
_MUTABLE_GLOBAL_ALLOWLIST: dict[str, set[str]] = {
    # Kernel ctypes signature table: frozen after import.
    # Backend singleton: double-checked init under _BACKEND_LOCK.
    "src/repro/wasm/plan_compile.py": {
        "_SIGNATURES",
        "global _BACKEND, _BACKEND_ERROR, _TRIED",
    },
    # Preset/registry tables, frozen after import:
    "src/repro/runtime/feature_codec.py": {"FEATURE_CODECS"},
    "src/repro/runtime/network.py": {"LINK_PRESETS", "FAULT_PROFILES"},
    "src/repro/runtime/profiles.py": {"DEVICE_PRESETS"},
    "src/repro/runtime/protocol.py": {"_DECODERS"},
}


def _mutable_global_bindings(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, description) of module-level mutable-container bindings
    and ``global`` rebind statements anywhere in the module."""
    found: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            mutable = isinstance(
                value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            )
            if isinstance(value, ast.Call):
                func = value.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else ""
                )
                mutable = name in _MUTABLE_FACTORIES
            if mutable:
                for target in targets:
                    if isinstance(target, ast.Name) and not (
                        target.id.startswith("__") and target.id.endswith("__")
                    ):
                        found.append((node.lineno, target.id))
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, f"global {', '.join(node.names)}"))
    return found


@pytest.mark.par
def test_no_new_mutable_module_globals_in_hot_paths():
    offenders = []
    for root in _HOT_PATH_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            allowed = _MUTABLE_GLOBAL_ALLOWLIST.get(rel, set())
            tree = ast.parse(path.read_text())
            for lineno, name in _mutable_global_bindings(tree):
                if name not in allowed:
                    offenders.append(f"{rel}:{lineno}: {name}")
    assert not offenders, (
        "new module-level mutable globals in engine hot paths — these "
        "race across WorkerPool threads; move the state into a "
        "lock-guarded class, thread-local, or per-instance attribute "
        "(or audit and allowlist it in test_lint.py):\n"
        + "\n".join(offenders)
    )


def test_mutable_global_allowlist_is_tight():
    """Every allowlist entry still matches a live binding — stale
    entries would quietly re-open the door the gate closes."""
    for rel, names in _MUTABLE_GLOBAL_ALLOWLIST.items():
        path = REPO_ROOT / rel
        assert path.exists(), f"allowlisted file vanished: {rel}"
        live = {name for _, name in _mutable_global_bindings(ast.parse(path.read_text()))}
        stale = names - live
        assert not stale, f"stale allowlist entries for {rel}: {sorted(stale)}"
