"""Every name the benchmark's tracer wraps must exist on the kplan modules.

`perfbench/tracing.py` replaces kplan functions under the names their
callers look them up by; a refactor that drops one of those names would
make `perfbench/run.py --trace 1` fail with AttributeError.
"""

import types
from pathlib import Path

import pytest

import kplan
import kplan.cli  # noqa: F401  (the tracer looks names up on kplan.cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="perfbench/ is absent")
def test_every_traced_name_resolves():
    # executed from its text, so that nothing is written under perfbench/
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    sites = [(owner, attr) for _, _, owners in tracing._targets(kplan)
             for owner, attr in owners]
    assert sites
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if not callable(getattr(owner, attr, None))]
    assert not missing
