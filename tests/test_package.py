"""The package's public surface, the names the benchmark's tracer looks up in it, its split from the test oracles, and the README's library example."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import hallwalk

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hallwalk import *", namespace)
    assert [name for name in hallwalk.__all__ if name not in namespace] == []


def test_every_traced_probe_is_a_function_of_the_package():
    # `Tracer.install` fails on a probe whose function is gone, and only a traced bench run would show it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{func}"
        for module, func, _ in tracing.PROBES
        if not callable(getattr(importlib.import_module(f"hallwalk.{module}"), func, None))
    ]
    assert missing == []


def test_no_oracle_is_also_a_name_of_the_package():
    # a reference lives in exactly one place: beside the tests, never also in src
    import oracles

    defined = [name for name, value in vars(oracles).items() if getattr(value, "__module__", None) == "oracles"]
    modules = [hallwalk] + [
        importlib.import_module(f"hallwalk.{info.name}") for info in pkgutil.iter_modules(hallwalk.__path__)
    ]
    assert "hrep" in defined and hallwalk.polytope in modules
    assert [(m.__name__, name) for m in modules for name in defined if hasattr(m, name)] == []


def test_the_package_imports_nothing_from_the_tests():
    tests = Path(__file__).resolve().parent
    local = {"tests"} | {path.stem for path in tests.glob("*.py")}
    found = []
    for path in sorted(Path(hallwalk.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] in local]
    assert found == []


def test_the_readme_library_block_runs():
    # each line runs in turn; a line whose comment is only a Python literal must have that value
    block = re.search(r"## Library\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 3
