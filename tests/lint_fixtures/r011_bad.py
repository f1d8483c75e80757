"""Bad: pragmas that suppress nothing."""

x = 1  # repro-lint: ignore[R002]
y = 2  # repro-lint: ignore[R999]
