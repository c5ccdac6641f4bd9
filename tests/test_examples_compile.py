"""Sanity checks for the example scripts.

Here we guarantee cheaply that each example parses, has a main() entry
point, only imports ``repro`` names that exist, and documents itself.
The four short ones (``quickstart.py``, ``viral_marketing_campaign.py``,
``model_agnostic_framework.py`` and ``expected_budget_campaign.py``, a
few seconds each) also run end to end in CI's tier-1 job.  The two long
studies, ``discount_sensitivity_study.py`` (about 50 s) and
``reproduce_paper_experiments.py`` (about 2 min), run nowhere in CI:
these checks are all they get.
"""

import ast
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def example_ids():
    return [path.name for path in EXAMPLE_FILES]


@pytest.fixture(params=EXAMPLE_FILES, ids=example_ids())
def example_tree(request):
    source = request.param.read_text(encoding="utf-8")
    return request.param, ast.parse(source, filename=str(request.param))


class TestExamples:
    def test_at_least_five_examples(self):
        assert len(EXAMPLE_FILES) >= 5

    def test_quickstart_exists(self):
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    def test_parses(self, example_tree):
        path, tree = example_tree
        assert isinstance(tree, ast.Module)

    def test_has_module_docstring(self, example_tree):
        _, tree = example_tree
        assert ast.get_docstring(tree), "examples must explain their scenario"

    def test_has_main_guard(self, example_tree):
        path, _ = example_tree
        assert 'if __name__ == "__main__":' in path.read_text(encoding="utf-8")

    def test_defines_main_function(self, example_tree):
        _, tree = example_tree
        names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert "main" in names

    def test_imports_resolve(self, example_tree):
        """Every repro import used by an example must actually exist."""
        import importlib

        _, tree = example_tree
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{node.module}.{alias.name} does not exist"
                    )
