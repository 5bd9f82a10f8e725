import ast
import re
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
