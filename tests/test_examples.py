"""Every example still imports: the names it uses exist.

Importing runs an example's imports and module-level set-up, not its
``main()``, so an example cannot outlive the API it demonstrates.  What
the two longest walkthroughs exercise end to end is pinned elsewhere:
``trace_flow.py`` by ``test_trace.py`` (the same flap comparison through
``repro trace``) and ``self_healing.py`` by ``test_health.py``
(``TestRecovery``, ``TestPinnedSelfHealing``).
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
