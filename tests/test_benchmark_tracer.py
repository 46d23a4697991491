"""The functions the benchmark's tracer wraps must exist under their names."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_function_resolves():
    # a plain name on its lieentropy.<layer> module, Class.method in the
    # class __dict__, as the tracer installs them
    wrapped = _wrapped()
    assert wrapped
    for layer, names in wrapped.items():
        module = importlib.import_module(f"lieentropy.{layer}")
        for entry in names:
            owner, _, attr = entry.rpartition(".")
            if owner:
                assert attr in vars(getattr(module, owner)), f"{layer}.{entry}"
            else:
                assert callable(getattr(module, attr, None)), f"{layer}.{entry}"


def test_importing_the_cli_loads_every_traced_layer():
    # benchmarks/run.py imports lieentropy.cli alone and then reads the
    # catalog, groups and estimator modules from sys.modules, and the tracer
    # reads each wrapped layer's module there: a layer the CLI imported
    # lazily would fail every benchmark set-up with KeyError
    layers = sorted(set(_wrapped()) | {"catalog", "groups", "estimator"})
    # the same interpreter lists the package's dataclasses: value records are
    # NamedTuples, and only the records that cache derived state or check an
    # invariant when built stay dataclasses
    code = ("import dataclasses, sys, lieentropy.cli\n"
            f"print([m for m in {layers!r} if 'lieentropy.' + m not in sys.modules])\n"
            "print(sorted(f'{n[11:]}.{k}' for n, m in list(sys.modules.items())\n"
            "             if n.startswith('lieentropy.') for k, c in vars(m).items()\n"
            "             if isinstance(c, type) and c.__module__ == n\n"
            "             and dataclasses.is_dataclass(c)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr
    missing, dataclasses = result.stdout.splitlines()
    assert missing == "[]"
    assert dataclasses == str([
        "exactlinalg.Lattice", "exactlinalg.Subspace", "groups.CentralTorus",
        "groups.GroupEndomorphism", "groups.PresentedGroup", "liealgebra.Ideal",
        "mahler.EntropyValue"])
