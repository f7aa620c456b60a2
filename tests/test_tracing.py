"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py wraps the functions in its TARGETS by module and
attribute path; a rename in the package would break the traced benchmark
run.  This installs and uninstalls the tracer and checks that every target
was wrapped and every original put back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, path):
    owner = importlib.import_module(f"cocycle_lab.{module_name}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _package_namespaces():
    importlib.import_module("cocycle_lab.verify")
    return {
        name: dict(vars(module)) for name, module in sys.modules.items()
        if name == "cocycle_lab" or name.startswith("cocycle_lab.")
    }


def test_tracer_wraps_every_target_and_restores_it():
    tracing = _load_tracing()
    before = _package_namespaces()
    claims = [(claim, claim.fn) for claim in importlib.import_module("cocycle_lab.verify").CLAIMS]
    originals = [vars(owner)[name] for owner, name in
                 (_owner(module, path) for module, path, *_ in tracing.TARGETS)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, path, *_), original in zip(tracing.TARGETS, originals):
            owner, name = _owner(module, path)
            assert vars(owner)[name] is not original, f"{module}.{path} was not wrapped"
    finally:
        tracer.uninstall()
    for (module, path, *_), original in zip(tracing.TARGETS, originals):
        owner, name = _owner(module, path)
        assert vars(owner)[name] is original, f"{module}.{path} was not restored"
    assert all(claim.fn is fn for claim, fn in claims)
    after = _package_namespaces()
    for module, namespace in before.items():
        changed = [attr for attr, value in namespace.items() if after[module].get(attr) is not value]
        assert not changed, f"{module}: {changed} not restored"
