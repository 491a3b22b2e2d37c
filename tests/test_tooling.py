"""Guards for the benchmark tooling under bench/, which reaches into
rpqdet by name."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file in memory: nothing is written under bench/.
TRACED = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))["TRACED"]


@pytest.mark.parametrize("module,attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_every_traced_function_resolves(module, attr):
    home = importlib.import_module(f"rpqdet.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(home, cls_name))[meth]
    else:
        fn = getattr(home, attr)
    assert callable(fn)
