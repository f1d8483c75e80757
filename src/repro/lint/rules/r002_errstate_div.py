"""R002: divisions by window deviations need ``np.errstate`` or a guard.

Eq. 3 divides by ``l * sigma_i * sigma_j``.  A flat window has sigma 0,
so an unguarded kernel division emits RuntimeWarnings, infinities, or
NaNs that silently poison the profile — the flat-segment bug class fixed
in PR 1/3.  Every division whose denominator references a deviation-like
quantity must sit under ``with np.errstate(...)``, clamp the denominator
(``np.maximum(sigma, EPS)``), or follow an explicit zero-deviation branch
(``if sigma < CONSTANT_EPS: ...``) in the same function.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Diagnostic, FileContext, Rule, call_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext

_SIGMA_LIKE = re.compile(r"sig|std|denom", re.IGNORECASE)

#: calls that clamp a value into a safe domain.
GUARD_CALLS = frozenset(
    {"np.maximum", "np.clip", "numpy.maximum", "numpy.clip", "max", "min"}
)


def _name_tokens(node: ast.AST) -> Set[str]:
    """All identifier tokens (``Name`` ids and ``Attribute`` attrs) in a subtree."""
    tokens: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            tokens.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            tokens.add(sub.attr)
    return tokens


def _is_guard_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in GUARD_CALLS


def _contains_guard_call(node: ast.AST) -> bool:
    return any(_is_guard_call(sub) for sub in ast.walk(node))


def _walk_scope_local(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class bodies."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            yield child  # the def itself is visible; its body is not
            continue
        yield from _walk_scope_local(child)


@dataclass
class _Scope:
    """Guard bookkeeping for one function body (or the module top level).

    ``guarded`` maps a variable name to the first line at which it was
    clamped into a safe domain — re-assigned from an expression
    containing a clamp call (``x = np.maximum(..., eps)``) or mutated in
    place through an ``out=x`` keyword — or tested in a branch condition
    (the early-return guard idiom).  ``errstate_spans`` are the line
    ranges covered by ``np.errstate`` context managers.
    """

    statements: List[ast.stmt]
    guarded: Dict[str, int] = field(default_factory=dict)
    errstate_spans: List[Tuple[int, int]] = field(default_factory=list)

    def walk(self) -> Iterator[ast.AST]:
        """Walk the scope's own statements (nested defs are separate scopes)."""
        for stmt in self.statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt
                continue
            yield from _walk_scope_local(stmt)

    def guard(self, name: str, line: int) -> None:
        self.guarded[name] = min(line, self.guarded.get(name, line))

    def is_guarded(self, name: str, before_line: int) -> bool:
        return self.guarded.get(name, before_line + 1) <= before_line

    def in_errstate(self, line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in self.errstate_spans)

    def scan(self) -> "_Scope":
        for node in self.walk():
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if node.value is not None and _contains_guard_call(node.value):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.guard(target.id, node.lineno)
            if _is_guard_call(node):
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name):
                        self.guard(kw.value.id, node.lineno)
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                for sub in ast.walk(node.test):
                    if isinstance(sub, ast.Compare):
                        for tok in _name_tokens(sub):
                            self.guard(tok, node.lineno)
            if isinstance(node, ast.With) and any(
                call_name(item.context_expr) in ("np.errstate", "numpy.errstate")
                for item in node.items
            ):
                end = getattr(node, "end_lineno", None) or node.lineno
                self.errstate_spans.append((node.lineno, end))
        return self


def _scopes(tree: ast.Module) -> Iterator[_Scope]:
    """The module top level, then every function body, each scanned."""
    yield _Scope(list(tree.body)).scan()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _Scope(list(node.body)).scan()


class ErrstateDivRule(Rule):
    rule_id = "R002"
    name = "guarded-division"
    summary = "divisions by sigma-like values need errstate or a zero guard"
    rationale = (
        "flat (constant) windows have sigma 0; unguarded Eq. 3 divisions "
        "turn them into inf/NaN profile entries (flat-segment bugs, PR 1/3)"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_kernel

    def check(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> Iterator[Diagnostic]:
        for scope in _scopes(ctx.tree):
            for node in scope.walk():
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                    continue
                risky: List[str] = sorted(
                    tok for tok in _name_tokens(node.right) if _SIGMA_LIKE.search(tok)
                )
                if not risky:
                    continue
                line = getattr(node, "lineno", 0)
                if scope.in_errstate(line):
                    continue
                if _contains_guard_call(node.right):
                    continue  # denominator clamped in place
                if all(scope.is_guarded(tok, line) for tok in risky):
                    continue
                yield self.diag(
                    ctx,
                    node,
                    f"division by deviation-like value(s) {', '.join(map(repr, risky))} "
                    "outside np.errstate and without a zero-std guard; a flat "
                    "window makes this inf/NaN",
                )
