import json
import os

import pytest

from hyperdox import Workspace, load_model

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def fixture_json(name):
    """The parsed JSON of a fixture file, read through a closed handle."""
    with open(fixture_path(name)) as f:
        return json.load(f)


@pytest.fixture
def ws3():
    return Workspace(("a", "b", "c"), (("p_a_1",), ("p_b_1",), ("p_c_1",)))


@pytest.fixture
def chain4():
    return load_model(fixture_path("chain4_h.json"))


@pytest.fixture
def pair2():
    return load_model(fixture_path("pair2_h.json"))


@pytest.fixture
def five_worlds_k():
    return load_model(fixture_path("five_worlds_k.json"))


@pytest.fixture
def five_worlds_h():
    return load_model(fixture_path("five_worlds_h.json"))
