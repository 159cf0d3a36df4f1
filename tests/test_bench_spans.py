"""The benchmark's span recorder wraps divprog names that must exist.

bench/spans.py wraps library functions and methods by name from outside
the package, so renaming one of them breaks the traced benchmark run.
Installing the recorder resolves every target; uninstalling it must put
every original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = getattr(owner, cls_name).__dict__[meth]
        return getattr(raw, "__func__", raw)
    return getattr(owner, attr)


def test_span_targets_exist_and_uninstall_restores_them():
    spans = _load_spans()
    for _, module, _, _, _ in spans.TARGETS:
        importlib.import_module(module)
    divprog_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "divprog"]
    before = {id(m): dict(vars(m)) for m in divprog_modules}
    classes = {(module, attr): _target(module, attr)
               for _, module, attr, _, _ in spans.TARGETS if "." in attr}
    recorder = spans.Recorder()
    try:
        recorder.install()
        for name, module, attr, _, _ in spans.TARGETS:
            assert hasattr(_target(module, attr), "__wrapped__"), name
    finally:
        recorder.uninstall()
    for m in divprog_modules:
        for key, value in before[id(m)].items():
            assert vars(m)[key] is value, (m.__name__, key)
    for (module, attr), original in classes.items():
        assert _target(module, attr) is original, attr
