"""Good: the pragma suppresses a real R002 diagnostic."""


def scale(qt, sigma):
    return qt / sigma  # repro-lint: ignore[R002]
