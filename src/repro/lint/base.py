"""Shared analysis machinery for the :mod:`repro.lint` rules.

A :class:`FileContext` wraps one parsed source file: its AST, the raw
lines and the ``# repro-lint:`` pragmas.  Rules subclass :class:`Rule` and yield
:class:`Diagnostic` objects; they run in one of three phases:

* ``file`` rules check one :class:`FileContext` at a time (and may read
  the shared :class:`~repro.lint.graph.ProjectContext` for cross-file
  facts);
* ``project`` rules run once per invocation over the whole project;
* ``post`` rules run after pragma filtering, over the suppression
  accounting itself (R011 stale-pragma).

Pragma suppression is applied centrally by the runner, which records
which pragmas actually consumed a diagnostic — the raw material of the
stale-pragma rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports base)
    from repro.lint.graph import ProjectContext

__all__ = [
    "Diagnostic",
    "FileContext",
    "PragmaRecord",
    "Rule",
    "call_name",
    "imported_names",
]

#: directories whose modules count as numerical-kernel code.
KERNEL_DIRS = frozenset({"distance", "matrixprofile", "core"})

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Z0-9,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def call_name(node: ast.AST) -> str:
    """Dotted name of a call target: ``np.fft.rfft``, ``max``, ``''``."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def imported_names(tree: ast.AST) -> Iterator[Tuple[ast.stmt, str]]:
    """Every absolute dotted module name a file imports.

    ``from repro import obs`` is expanded to ``repro.obs`` (and likewise
    for any ``from <pkg> import <sub>``), so aliasing cannot hide a
    layering violation.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # yield only the expanded names: ``from repro import obs`` is
            # an import of repro.obs, not of the whole repro package.
            for alias in node.names:
                yield node, f"{node.module}.{alias.name}"


@dataclass
class PragmaRecord:
    """One ``# repro-lint: ignore[...]`` pragma and its bookkeeping.

    ``covered`` is the set of source lines the pragma suppresses on —
    its own line, widened to the full span of a multi-line simple
    statement it sits inside (diagnostics anchor at the statement's
    first line, the pragma may trail the last).  ``used`` collects the
    rule ids that actually consumed a diagnostic, which is what the
    stale-pragma rule (R011) audits.
    """

    line: int
    rule_ids: Set[str]
    covered: Set[int]
    used: Set[str] = field(default_factory=set)


#: non-compound statements: a pragma anywhere in their line span applies
#: to the whole statement.  Compound statements (if/for/while/try) are
#: excluded so a pragma inside a 50-line branch does not blanket it.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
)


class FileContext:
    """One source file under analysis."""

    def __init__(self, path: Path, source: str, root: Optional[Path] = None) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        try:
            rel = path.relative_to(root) if root is not None else path
        except ValueError:
            rel = path
        self.display_path = str(rel)
        self.module_parts: Tuple[str, ...] = tuple(p.name for p in rel.parents)[
            ::-1
        ] + (rel.stem,)
        self.pragmas: List[PragmaRecord] = []
        self.skip_file = False
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")} - {""}
                if ids:
                    self.pragmas.append(
                        PragmaRecord(line=lineno, rule_ids=ids, covered={lineno})
                    )
            if _SKIP_FILE_RE.search(line):
                self.skip_file = True
        if self.pragmas:
            self._widen_multiline_pragmas()

    def _widen_multiline_pragmas(self) -> None:
        """Let a pragma on any line of a multi-line statement cover it all.

        Black-style formatting regularly splits a flagged call over
        several lines with the pragma trailing the closing parenthesis;
        the diagnostic anchors at the statement's first line.
        """
        for node in ast.walk(self.tree):
            start = getattr(node, "lineno", None)
            end = getattr(node, "end_lineno", None)
            if start is None or end is None:
                continue
            if not isinstance(node, _SIMPLE_STMTS) or end <= start:
                continue
            span = range(start, end + 1)
            for record in self.pragmas:
                if start < record.line <= end:
                    record.covered.update(span)

    @property
    def module_name(self) -> str:
        """Best-effort dotted module name (``repro.obs.registry``).

        Paths inside a ``repro`` directory are rooted there; anything
        else (fixtures, scratch files) joins all its parts, which keeps
        names unique without claiming package membership.
        """
        parts = [part for part in self.module_parts if part]
        if "repro" in parts:
            parts = parts[parts.index("repro") :]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -- classification ----------------------------------------------------

    @property
    def is_kernel(self) -> bool:
        """Module lives in a numerical-kernel package (distance/matrixprofile/core)."""
        return any(part in KERNEL_DIRS for part in self.module_parts[:-1])

    def consume(self, line: int, rule_id: str) -> bool:
        """True when a pragma suppresses ``rule_id`` on ``line``; records it as *used*.

        The runner calls this while filtering; the usage marks feed the
        stale-pragma rule (R011).
        """
        hit = False
        for record in self.pragmas:
            if rule_id in record.rule_ids and line in record.covered:
                record.used.add(rule_id)
                hit = True
        return hit


class Rule:
    """Base class for lint rules.

    ``phase`` selects how the runner drives the rule:

    * ``"file"`` — :meth:`check` is called once per applicable file.
    * ``"project"`` — :meth:`check_project` is called once per run.
    * ``"post"`` — :meth:`check_project` is called once per run, after
      pragma filtering (the suppression accounting is populated).

    Pragma filtering is the runner's responsibility; ``check`` yields
    raw diagnostics.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    phase: str = "file"

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def check_project(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def run(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> List[Diagnostic]:
        """Raw diagnostics for one file (no pragma filtering)."""
        if ctx.skip_file or not self.applies(ctx):
            return []
        return list(self.check(ctx, project))

    def diag(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )

    def diag_at(
        self, ctx: FileContext, line: int, col: int, message: str
    ) -> Diagnostic:
        """A diagnostic at an explicit location (project/post rules)."""
        return Diagnostic(
            path=ctx.display_path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


def parse_file(path: Path, root: Optional[Path] = None) -> FileContext:
    """Read and parse one file into a :class:`FileContext`."""
    return FileContext(path, path.read_text(encoding="utf-8"), root=root)


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directory walks skip ``__pycache__`` and hidden directories
    explicitly (a stray ``.py`` inside a cache directory must not lint),
    and non-``.py`` arguments are dropped rather than parsed.
    """
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path)
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in relative.parts[:-1]
                ):
                    continue
                found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
    return found
