"""The package's public surface, and the names the benchmark's tracer looks up in it."""

import importlib
import importlib.util
from pathlib import Path

import hallwalk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
