import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import t2s

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "CoTBody", "Completion", "Deps", "FewShot", "FewShotLibrary", "GatewayError",
    "HttpGateway", "PipelineConfig", "RecordingGateway", "SchemaCatalog",
    "ScriptedGateway", "T2SError", "TrigramEmbedder", "ValueIndex", "ingest_schema",
    "mask_question", "preprocess_database", "run_pipeline",
}


def package_imports(source):
    """Names imported by `from t2s import ...` anywhere in the source."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "t2s"
        for alias in node.names
    }


def test_all_is_the_public_surface():
    assert sorted(t2s.__all__) == sorted(PUBLIC)
    assert all(hasattr(t2s, name) for name in t2s.__all__)


def test_documented_and_benchmark_imports_are_public():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    readme_names = set().union(*(package_imports(code) for code in examples))
    bench_names = package_imports((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    assert readme_names and bench_names
    assert readme_names <= set(t2s.__all__)
    assert bench_names <= set(t2s.__all__)


def test_every_traced_name_resolves(monkeypatch):
    # A traced perfbench run patches each TARGETS row at owner.__dict__[attr]
    # and stops with a KeyError on the first name its owner no longer holds.
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for owner_path, attr, _name, _sql_position in spans.TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert attr in owner.__dict__, f"{owner_path} has no {attr}"
