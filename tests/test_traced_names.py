"""The benchmark traces ringflow from outside (perfbench/spans.py): every
name in its TRACED tuple must still exist as a module or class attribute and
be called through that attribute."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import TRACED, Tracer  # noqa: E402

from ringflow import baselines, ring as ringmod  # noqa: E402

from conftest import make_ring  # noqa: E402


def _current(dotted):
    """What the tracer reads and replaces: the attribute in its owner's dict."""
    mod_name, *owner_path, attr = dotted.split(".")
    owner = importlib.import_module(f"ringflow.{mod_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_tracer_installs_over_every_traced_name_and_uninstalls():
    before = {name: _current(name) for name in TRACED}
    tracer = Tracer()
    tracer.mark()
    tracer.install()
    try:
        for name in TRACED:
            assert _current(name) is not before[name], name
        # rollout and the recorders reach the wrapped functions at call time
        baselines.run_idm_recovery(make_ring([0.0, 500.0], [10.0, 10.0]), 3)
        ringmod.rollout(make_ring([0.0, 500.0], [10.0, 10.0]), 2)
    finally:
        tracer.uninstall()
    calls = tracer.phase_calls(0)
    assert calls["baselines.run_idm_recovery"] == 1
    assert calls["ring.step"] == 5
    assert calls["metrics.TraceRecorder.record"] == 3
    assert calls["metrics.measure"] == 3
    for name in TRACED:
        assert _current(name) is before[name], name
