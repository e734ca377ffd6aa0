"""The benchmark's traced pass wraps library functions by module attribute
name; a refactor that drops or renames one makes `perfbench/run.py --trace 1`
exit 3.  This guard fails in the ordinary suite instead."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench",
                                                      PERFBENCH / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        sites = bench._sites({})
    finally:
        for name in set(sys.modules) - before:
            if name in ("tracer", "hostref"):
                del sys.modules[name]
    assert sites
    missing = [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
               for span, owner, attr, _ in sites if not hasattr(owner, attr)]
    assert not missing, missing
