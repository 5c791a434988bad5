"""README.md's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


@pytest.fixture(scope="module")
def namespaces():
    """Each block executed once, in order, in its own namespace."""
    out = []
    for block in BLOCKS:
        namespace = {"__name__": "readme"}
        exec(compile(block, str(README), "exec"), namespace)
        out.append(namespace)
    return out


def test_every_python_block_runs(namespaces):
    assert len(namespaces) == len(BLOCKS) >= 2


def test_fleet_example_warm_starts_the_late_session(namespaces):
    (fleet,) = [ns for ns in namespaces if "run_fleet" in ns]
    late = fleet["late"]
    assert late.warm_started
    assert late.warm_source == "donor"
