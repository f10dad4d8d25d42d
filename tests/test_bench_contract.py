"""The traced benchmark run rebinds functions and methods of ``cstarcat`` by
name, reading each from its owner's ``__dict__``. A refactor that renames one
of them, or moves a method into a base class, fails here instead of breaking
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_is_defined_by_its_owner():
    targets = traced_targets()
    assert targets
    missing = []
    for prefix, module, path, _spans, _hook in targets:
        owner = importlib.import_module(f"cstarcat.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{prefix}: cstarcat.{module}.{path}")
    assert not missing, missing
