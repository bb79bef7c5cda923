import pathlib

import pytest


@pytest.fixture
def datadir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"


@pytest.fixture
def broken_witness(monkeypatch):
    """Make ``detection.build_witness`` raise for (2,2) alone; the error text."""
    from tensorcube import detection
    build = detection.build_witness
    message = "no certificate for (2,2)"

    def broken(lam):
        if lam == (2, 2):
            raise RuntimeError(message)
        return build(lam)

    monkeypatch.setattr(detection, "build_witness", broken)
    return message
