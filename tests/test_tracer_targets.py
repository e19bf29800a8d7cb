"""The benchmark's traced runs look library names up by string; pin them here.

`perfbench/tracer.py` replaces each function in its `TARGETS` with a
wrapper, found with `getattr` on the `liecoh` module or `__dict__` on the
class, and `perfbench/run.py` reads `pbw._word_span.cache_info()`.  A
renamed or deleted target would crash a traced run only.  This test reads
the tracer module and changes nothing in it.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for modname, path, *_ in targets:
        home = importlib.import_module(f"liecoh.{modname}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(home, cls_name)), (modname, path)
        else:
            assert callable(getattr(home, path)), (modname, path)


def test_word_span_cache_is_readable():
    from liecoh import pbw

    info = pbw._word_span.cache_info()
    assert info.maxsize is not None
