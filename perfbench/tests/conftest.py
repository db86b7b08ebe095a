import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="module")
def sk():
    import importlib

    pkg = importlib.import_module("starkit")
    for name in ("cli", "errors", "verify"):
        importlib.import_module(f"starkit.{name}")
    return pkg


@pytest.fixture(scope="module")
def spec():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
