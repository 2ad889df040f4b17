"""The documentation stays honest: links resolve, bash blocks run.

Extracts every fenced ```bash block from README.md and docs/**/*.md
and classifies each command.  Fast, offline, deterministic commands
are smoke-executed and must exit 0.  Commands covered by other CI
jobs (pytest suites, benchmark regenerations, fuzz campaigns), or
that need a live server / network / prior artifacts, are skipped —
but every repo file they reference must exist.  A command no rule
recognizes fails the suite, so new snippets must be classified here
on purpose.  Every relative markdown link is also checked against
the working tree, and every ``repro.*`` import in ``src/repro`` is
checked against the package map's layers in docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent

EXEC = "exec"
SKIP = "skip"

_FENCE = re.compile(r"^```(\S*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _doc_files() -> List[Path]:
    docs = sorted((REPO / "docs").glob("**/*.md"))
    assert docs, "docs/ holds no markdown — the docs plane is missing"
    return [REPO / "README.md", *docs]


def _fenced_blocks(path: Path) -> List[Tuple[int, str, str]]:
    """All fenced code blocks as (start_line, language, body)."""
    blocks = []
    lang: Optional[str] = None
    buf: List[str] = []
    start = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _FENCE.match(line)
        if match and lang is None:
            lang, buf, start = match.group(1), [], lineno
        elif match:
            blocks.append((start, lang, "\n".join(buf)))
            lang = None
        elif lang is not None:
            buf.append(line)
    assert lang is None, f"{path.name}: unterminated code fence at line {start}"
    return blocks


def _commands(body: str) -> List[str]:
    """Logical commands: comments dropped, backslash continuations joined."""
    cmds, pending = [], ""
    for line in body.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            pending += stripped[:-1].rstrip() + " "
        else:
            cmds.append(pending + stripped)
            pending = ""
    assert not pending, f"dangling line continuation in block: {body!r}"
    return cmds


def _classify(cmd: str) -> Optional[str]:
    if "repro.chaos replay" in cmd and "--scenario" in cmd:
        return EXEC  # one deterministic scenario: fast and offline
    if "repro.chaos replay" in cmd:
        return SKIP  # full invariant replay — CI's chaos-smoke job
    if cmd.startswith("pip install"):
        return SKIP  # mutates the environment
    if "python -m pytest" in cmd:
        return SKIP  # tier-1 / benchmarks CI jobs run these
    if re.search(r"python examples/\w+\.py", cmd):
        return SKIP  # tier-1's example smoke test executes every script
    if "repro.ingest serve" in cmd:
        return SKIP  # long-running server
    if "repro.obs --url" in cmd or "http://" in cmd or "https://" in cmd:
        return SKIP  # needs a live daemon / network
    if "repro.fuzz" in cmd:
        return SKIP  # campaign is the fuzz-smoke job; replay needs artifacts
    return None


def _all_commands() -> List[Tuple[str, int, str]]:
    found = []
    for path in _doc_files():
        rel = str(path.relative_to(REPO))
        for start, lang, body in _fenced_blocks(path):
            if lang == "bash":
                for cmd in _commands(body):
                    found.append((rel, start, cmd))
    return found


_COMMANDS = _all_commands()


def test_docs_have_bash_blocks():
    assert len(_COMMANDS) >= 10, _COMMANDS


def test_every_command_is_classified():
    unknown = [(f, n, c) for f, n, c in _COMMANDS if _classify(c) is None]
    assert not unknown, (
        "unclassified documentation commands (teach tests/test_docs.py "
        f"about them): {unknown}"
    )


def test_skipped_commands_reference_real_files():
    """A snippet we don't execute must still name files that exist.

    Only repo source paths (``*.py`` tokens) are checked — artifact
    paths a command *produces* (json summaries, sqlite files,
    downloaded findings) are legitimately absent from the tree.
    """
    missing = []
    for rel, lineno, cmd in _COMMANDS:
        if _classify(cmd) != SKIP:
            continue
        for token in cmd.split():
            if token.endswith(".py") and not (REPO / token).exists():
                missing.append((rel, lineno, token))
    assert not missing, f"documented paths not in the tree: {missing}"


@pytest.mark.parametrize(
    "rel,lineno,cmd",
    [
        # The id names the file and the command, not the line: an edit
        # above a command must not rename its test.
        pytest.param(f, n, c, id=f"{f.replace('/', '_')}-{c}")
        for f, n, c in _COMMANDS
        if _classify(c) == EXEC
    ],
)
def test_documented_command_runs(rel, lineno, cmd):
    # Snippets are written for a repo-root shell (PYTHONPATH=src is
    # relative), so that is where they run.
    proc = subprocess.run(
        ["bash", "-c", cmd],
        cwd=REPO,
        env=dict(os.environ),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{rel}:{lineno}: `{cmd}` exited {proc.returncode}\n"
        f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )


def _relative_links(path: Path) -> List[Tuple[int, str]]:
    links = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            links.append((lineno, target.split("#", 1)[0]))
    return links


def test_relative_links_resolve():
    dead = []
    for path in _doc_files():
        for lineno, target in _relative_links(path):
            if target and not (path.parent / target).exists():
                dead.append((str(path.relative_to(REPO)), lineno, target))
    assert not dead, f"dead relative links: {dead}"


_LAYER = re.compile(r"^\*\*Layer (\d+)\b")
_MAP_ROW = re.compile(r"^\| `repro\.(\w+)` \|")

#: The upward imports the package map allows, as (file, enclosing
#: function, module): ``Runtime.gc()`` and ``enable_gc()`` run the
#: sweep of ``repro.gc``, which is built on the runtime.
_ALLOWED_UPWARD = {
    ("runtime/scheduler.py", "gc", "repro.gc.sweep"),
    ("runtime/scheduler.py", "enable_gc", "repro.gc.sweep"),
}


def _package_layers():
    """``{package: layer}`` from the package map's tables."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    section = text.split("## The package map", 1)[1].split("\n## ", 1)[0]
    layers, layer = {}, None
    for line in section.splitlines():
        match = _LAYER.match(line)
        if match:
            layer = int(match.group(1))
        match = _MAP_ROW.match(line)
        if match:
            layers[match.group(1)] = layer
    return layers


def _repro_imports(path: Path, package: str):
    """``(enclosing function, module)`` for every ``repro.*`` import in
    one file, deferred ones included; ``package`` is the dotted package
    relative imports resolve against."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((func, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level:
                    parts = package.split(".")
                    parts = parts[:len(parts) - child.level + 1]
                    base = ".".join(parts + ([base] if base else []))
                # ``from repro import obs`` names the package in the alias
                found.extend(
                    (func, base if base.count(".") else f"{base}.{alias.name}")
                    for alias in child.names
                )
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return [(func, name) for func, name in found if name.startswith("repro.")]


def test_imports_follow_the_package_map():
    """No package imports a higher layer of the package map, except the
    deferred sweep imports in ``_ALLOWED_UPWARD``."""
    layers = _package_layers()
    src = REPO / "src" / "repro"
    assert set(layers) == {
        path.parent.name for path in src.glob("*/__init__.py")
    }, "the package map and src/repro list different packages"
    upward, allowed = [], set()
    for path in sorted(src.glob("*/**/*.py")):
        rel = path.relative_to(src)
        module = ["repro", *rel.with_suffix("").parts]
        package = ".".join(module[:-1])
        for func, name in _repro_imports(path, package):
            if layers[name.split(".")[1]] <= layers[rel.parts[0]]:
                continue
            key = (rel.as_posix(), func, name)
            if key in _ALLOWED_UPWARD:
                allowed.add(key)
            else:
                upward.append(key)
    assert not upward, f"imports of a higher layer: {upward}"
    assert allowed == _ALLOWED_UPWARD, "an allowed upward import is gone"
