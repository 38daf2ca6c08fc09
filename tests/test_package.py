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


def absolute_imports():
    """(file, top-level module) for every absolute import in the package's sources."""
    for path in sorted(Path(hallwalk.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield path.name, node.module.split(".")[0]


def test_the_package_imports_nothing_from_the_tests():
    tests = Path(__file__).resolve().parent
    local = {"tests"} | {path.stem for path in tests.glob("*.py")}
    assert [(file, name) for file, name in absolute_imports() if name in local] == []


def test_no_module_of_the_package_imports_dataclasses():
    # dataclasses imports inspect, the largest stdlib import a fresh `hallwalk` command would pay for
    imports = list(absolute_imports())
    assert ("cli.py", "argparse") in imports
    assert [(file, name) for file, name in imports if name == "dataclasses"] == []


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


def imported(file):
    """Every module and name that an import of the package's `file` mentions: `from .polytope import count` gives polytope and count."""
    names = set()
    for node in ast.walk(ast.parse((Path(hallwalk.__file__).parent / file).read_text(), file)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def test_the_two_delta_routes_share_no_code():
    # the ascent route (delta.py) and the counting route (ehrhart.py) are two verdicts only while they stay apart
    ascent, counting = imported("delta.py"), imported("ehrhart.py")
    assert {"polytope", "check_s"} <= ascent and {"polytope", "count"} <= counting
    assert ascent & {"ehrhart", "count", "_count_cells", "_charge_count"} == set()
    assert "delta" not in counting
