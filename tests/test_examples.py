"""Every script under ``examples/`` runs end to end against the public API.

Each example guards its work behind ``if __name__ == "__main__"``, so
importing one by path resolves its imports and defines ``main``; calling
``main()`` then runs the whole script.  A deleted or renamed public name or
result attribute fails here instead of in a user's hands.
"""

from __future__ import annotations

import glob
import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")
EXAMPLES = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.py")))


def test_examples_found():
    assert EXAMPLES, f"no example scripts under {EXAMPLES_DIR}"


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.splitext(os.path.basename(p))[0] for p in EXAMPLES]
)
def test_example_imports_and_defines_main(path, capsys):
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    module.main()
    assert capsys.readouterr().out.strip()
