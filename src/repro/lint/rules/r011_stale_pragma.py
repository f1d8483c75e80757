"""R011: a suppression pragma must actually suppress something.

``repro-lint: ignore[...]`` comments accumulate: the flagged code gets
rewritten, the pragma stays, and a year later the file is sprinkled with
suppressions that silence nothing today — but will silently swallow the
*next* real violation on that line.  The runner records, per pragma,
which rule ids actually consumed a diagnostic; this rule audits that
accounting after the file and project phases ran.

A pragma id is reported as stale only when its rule was active in the
current invocation (a ``--select R002`` run cannot know whether an
``ignore[R009]`` still earns its keep).  Ids that are not rules at all
are always reported — they never suppress anything under any selection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.base import Diagnostic, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext


class StalePragmaRule(Rule):
    rule_id = "R011"
    name = "stale-pragma"
    summary = "every ignore[...] pragma suppresses at least one diagnostic"
    rationale = (
        "a pragma that suppresses nothing today will silently swallow the "
        "next real violation on its line; unknown rule ids in pragmas "
        "never suppressed anything to begin with"
    )
    phase = "post"

    def check_project(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        for ctx in project.files:
            if ctx.skip_file:
                continue
            for record in ctx.pragmas:
                for rule_id in sorted(record.rule_ids):
                    if rule_id not in project.known_rule_ids:
                        yield self.diag_at(
                            ctx,
                            record.line,
                            1,
                            f"pragma names unknown rule id {rule_id!r}; it "
                            "suppresses nothing under any rule selection",
                        )
                        continue
                    if rule_id not in project.active_rule_ids:
                        continue  # not checked this run: staleness unprovable
                    if rule_id in record.used:
                        continue
                    yield self.diag_at(
                        ctx,
                        record.line,
                        1,
                        f"stale pragma: ignore[{rule_id}] suppressed no "
                        "diagnostic — remove it before it swallows a real "
                        "violation",
                    )
