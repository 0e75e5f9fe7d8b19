"""The benchmark's tracer still finds every latfuse function it wraps.

``perfbench/tracer.py`` wraps its targets by module and attribute name, so
renaming or removing one of them breaks the benchmark, not the package.
This loads the tracer from its path, installs it on the package and checks
that every target was wrapped and that ``uninstall`` puts the originals back.
"""

import importlib.util
from pathlib import Path

import latfuse
import latfuse.cli  # the tracer wraps the CLI and the formats module it loads

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("align", "cli", "ctc", "formats", "fusion", "lattice", "metrics",
           "simulate")


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    """Every name bound in the package and its modules, by identity."""
    spaces = [latfuse] + [getattr(latfuse, m) for m in MODULES]
    state = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}
    for mod_name in MODULES:
        for k, v in vars(getattr(latfuse, mod_name)).items():
            if isinstance(v, type) and v.__module__.startswith("latfuse"):
                state.update({(v.__qualname__, m): f
                              for m, f in vars(v).items()})
    return state


def test_install_wraps_every_target_and_uninstall_restores():
    tracer = load_tracer_module().Tracer(latfuse)
    targets = tracer._targets()
    assert len(targets) == 27
    before = snapshot()
    tracer.install()
    try:
        for mod_name, attr, methods, _ in targets:
            owner = getattr(getattr(latfuse, mod_name), attr)
            original = before[(f"latfuse.{mod_name}", attr)]
            if methods is None:
                assert owner is not original, f"{mod_name}.{attr} not wrapped"
                assert owner.__wrapped__ is original
            else:
                for meth in methods:
                    wrapped = vars(owner)[meth]
                    assert wrapped.__wrapped__ is before[
                        (owner.__qualname__, meth)]
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
