"""The benchmark's per-layer trace finds every function it wraps.

``perfbench/trace_cli.py`` wraps the functions listed in its ``TARGETS`` by
name. A target that no longer resolves only prints a warning and records zero
calls, so a rename would silently zero a per-layer metric. The script is
loaded by path and left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

import currikit.cli  # noqa: F401  (the entry point; _resolve imports each target's module)

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def _load_trace_cli():
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_cli = _load_trace_cli()


@pytest.mark.parametrize("module_name, qualname",
                         [(m, q) for m, q, _, _ in trace_cli.TARGETS])
def test_trace_target_resolves(module_name, qualname):
    assert trace_cli._resolve(module_name, qualname) is not None, (
        f"{module_name}.{qualname} is wrapped by perfbench/trace_cli.py but does not exist")
