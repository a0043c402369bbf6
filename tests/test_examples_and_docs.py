"""Smoke checks for the examples and documentation consistency.

Each example is a minutes-scale script, so we don't execute their mains
here; instead we verify they parse, import only public API, and that the
documentation's promises (examples listed in README, experiments indexed in
DESIGN.md) stay in sync with the tree.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
BENCHMARKS = REPO / "benchmarks"


def example_files():
    return sorted(EXAMPLES.glob("*.py"))


class TestExamples:
    def test_expected_examples_present(self):
        names = {p.name for p in example_files()}
        assert {
            "quickstart.py",
            "ps4_bundle_campaign.py",
            "multi_item_launch.py",
            "prefix_preserving_im.py",
            "model_comparison.py",
            "triggering_models.py",
            "competing_items.py",
        } <= names

    @pytest.mark.parametrize(
        "path", example_files(), ids=lambda p: p.name
    )
    def test_example_parses_and_has_main(self, path):
        tree = ast.parse(path.read_text())
        functions = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, f"{path.name} lacks a main()"

    @pytest.mark.parametrize(
        "path", example_files(), ids=lambda p: p.name
    )
    def test_example_imports_resolve(self, path):
        """Every repro import used by an example must exist."""
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if not node.module.startswith("repro"):
                    continue
                import importlib

                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        continue
                    # `from package import submodule` style
                    try:
                        importlib.import_module(
                            f"{node.module}.{alias.name}"
                        )
                    except ImportError:
                        pytest.fail(
                            f"{path.name}: {node.module}.{alias.name} missing"
                        )

    @pytest.mark.parametrize(
        "path", example_files(), ids=lambda p: p.name
    )
    def test_example_has_run_instructions(self, path):
        docstring = ast.get_docstring(ast.parse(path.read_text()))
        assert docstring
        assert "python examples/" in docstring


class TestDocumentationConsistency:
    def test_readme_lists_every_example(self):
        readme = (REPO / "README.md").read_text()
        for path in example_files():
            assert path.name in readme, f"README missing {path.name}"

    def test_design_md_references_existing_modules(self):
        import importlib

        design = (REPO / "DESIGN.md").read_text()
        for line in design.splitlines():
            for token in line.split("`"):
                if token.startswith("repro.") and " " not in token:
                    module = token.split(" ")[0].rstrip(".*")
                    if module.endswith(".*") or module == "repro.experiments":
                        continue
                    try:
                        importlib.import_module(module)
                    except ImportError:
                        # allow attribute references like repro.utility.price.X
                        parent, _, attr = module.rpartition(".")
                        mod = importlib.import_module(parent)
                        assert hasattr(mod, attr), f"DESIGN.md: {module}"

    def test_every_bench_target_in_design_or_experiments(self):
        design = (REPO / "DESIGN.md").read_text()
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        combined = design + experiments
        for path in sorted(BENCHMARKS.glob("bench_*.py")):
            assert path.name in combined, (
                f"{path.name} not documented in DESIGN.md/EXPERIMENTS.md"
            )

    def test_experiments_md_covers_all_figures_and_tables(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for anchor in (
            "Table 2", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
            "Fig. 8(a)", "Fig. 8(b, c)", "Fig. 8(d)",
            "Fig. 9(a–c)", "Fig. 9(d)", "Table 5", "Table 6",
        ):
            assert anchor in experiments, f"EXPERIMENTS.md missing {anchor}"

    def test_bench_json_lists_agree(self):
        """The benches that write a BENCH_*.json, run_all.sh's sweep and
        CI's bench-json artifact name the same files."""
        written = {}
        for path in sorted(BENCHMARKS.glob("bench_*.py")):
            names = {
                node.value
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and re.fullmatch(r"BENCH_\w+\.json", node.value)
            }
            if names:
                written[path.name] = names
        script = (BENCHMARKS / "run_all.sh").read_text()
        swept = re.search(r"JSON_BENCHES=\((.*?)\)", script, re.S).group(1)
        assert set(swept.split()) == set(written)
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        artifact = re.search(
            r"name: bench-json\n(.*?)if-no-files-found", ci, re.S
        ).group(1)
        assert set(re.findall(r"BENCH_\w+\.json", artifact)) == set().union(
            *written.values()
        )
