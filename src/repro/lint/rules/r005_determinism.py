"""R005: worker code must be deterministic and picklable.

Algorithm 3's row-block pool (:mod:`repro.core.compute_mp`) promises
bitwise-identical results for every worker count.  Two code shapes silently break that promise:

* iterating a ``set`` (hash order varies across processes and runs) to
  produce ordered side effects — iterate ``sorted(...)`` instead;
* shipping a lambda or nested function to an executor — it fails to
  pickle under the *spawn* start method, so the code only works on the
  platform it was written on.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Set

from repro.lint.base import Diagnostic, FileContext, Rule, call_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext

_SUBMIT_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and call_name(node) in _SET_CONSTRUCTORS:
        return True
    return False


class WorkerDeterminismRule(Rule):
    rule_id = "R005"
    name = "worker-determinism"
    summary = "no set-order iteration or unpicklable callables in worker code"
    rationale = (
        "set iteration order varies per process; lambdas/closures fail to "
        "pickle under spawn — both break the bitwise-parity guarantee of "
        "the row-block pool"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_worker_module

    def check(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> Iterator[Diagnostic]:
        nested_funcs = self._nested_function_names(ctx)
        for scope in ctx.scopes:
            set_vars: Set[str] = set()
            for node in scope.walk():
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name) and value is not None:
                            if _is_set_expr(value):
                                set_vars.add(target.id)
                            else:
                                set_vars.discard(target.id)
                iters = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if _is_set_expr(it) or (
                        isinstance(it, ast.Name) and it.id in set_vars
                    ):
                        yield self.diag(
                            ctx,
                            it,
                            "iteration over a set in worker code; hash order "
                            "is process-dependent — iterate sorted(...) to "
                            "keep results deterministic",
                        )
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _SUBMIT_METHODS
                        and node.args
                    ):
                        work = node.args[0]
                        if isinstance(work, ast.Lambda):
                            yield self.diag(
                                ctx,
                                work,
                                "lambda shipped to an executor; lambdas do "
                                "not pickle under the spawn start method",
                            )
                        elif (
                            isinstance(work, ast.Name) and work.id in nested_funcs
                        ):
                            yield self.diag(
                                ctx,
                                work,
                                f"nested function {work.id!r} shipped to an "
                                "executor; closures do not pickle under "
                                "spawn — move it to module level",
                            )

    @staticmethod
    def _nested_function_names(ctx: FileContext) -> Set[str]:
        top_level: Set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                top_level.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        top_level.add(sub.name)
        all_funcs = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        return all_funcs - top_level
