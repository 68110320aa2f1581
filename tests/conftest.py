"""Shared fixtures for the test suite."""

import random

import pytest

from repro.stack.address import AddressMapper
from repro.stack.geometry import StackGeometry


@pytest.fixture
def geometry():
    """The paper's full baseline geometry (Table II)."""
    return StackGeometry()


@pytest.fixture
def small_geometry():
    """Scaled-down geometry for functional tests."""
    return StackGeometry.small()


@pytest.fixture
def rng():
    return random.Random(0xC17ADE1)


@pytest.fixture
def encode_calls(monkeypatch):
    """The coordinates of every ``AddressMapper.encode`` call made while
    the test runs, in call order."""
    calls = []
    encode = AddressMapper.encode

    def spy(self, *coordinates):
        calls.append(coordinates)
        return encode(self, *coordinates)

    monkeypatch.setattr(AddressMapper, "encode", spy)
    return calls
