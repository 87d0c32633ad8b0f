"""The benchmark's tracer wraps library functions by name; every name it
wraps must exist, or a refactor that deletes one breaks the benchmark."""

import os
import runpy

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _wrapped_names():
    # run_path compiles the source itself and writes no bytecode into bench/
    namespace = runpy.run_path(TRACER)
    return namespace["SPANS"] + namespace["LEAVES"]


def test_every_traced_name_exists():
    names = _wrapped_names()
    assert len(names) > 10
    for owner, attr, layer in names:
        # Tracer.install looks each one up as vars(owner)[attr]
        assert attr in vars(owner), f"{layer}: {owner.__name__} has no {attr}"
        assert callable(vars(owner)[attr]), layer
