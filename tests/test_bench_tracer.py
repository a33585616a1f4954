"""The benchmark's span recorder must find every binding it wraps: a renamed
function would otherwise drop its per-layer metric without an error."""

from bench.tracer import Tracer


def test_every_traced_binding_resolves():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.unwrapped == []
    finally:
        tracer.uninstall()
