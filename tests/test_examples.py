"""Every example script imports cleanly.

The examples are not run (their ``main()`` solves take seconds to
minutes), but importing them under a non-``__main__`` name resolves every
name they import from ``repro``, so an example left pointing at a removed
or renamed API fails here instead of in a reader's terminal.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
