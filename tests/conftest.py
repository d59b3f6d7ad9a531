import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles and helpers importable

from helpers import Fabric, make_machine
from lightv_sim.machine import MachineConfig


@pytest.fixture
def config():
    return MachineConfig()


@pytest.fixture
def machine():
    return make_machine()


@pytest.fixture
def fabric():
    return Fabric()
