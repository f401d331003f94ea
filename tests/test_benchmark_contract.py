"""The benchmark's traced run wraps dqcc functions by (module, attribute).
A name it cannot find is left out of the result and listed under
`missing_wrappers`, so a rename here would drop a per-layer metric silently."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_wrapper_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert spans.WRAPPED and missing == []
