"""Re-importing the package frees the previous one. A module-level value
that outlives its modules (a typing alias over package classes is kept in
typing's cache) would keep the old classes alive, and through their
methods' globals every old module dict.

Run as a script (PYTHONPATH=src python tests/test_reimport.py), it makes
the check in its own process and prints one line. The test runs the
script in a subprocess, so that no other test sees a second generation
of the package.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
import weakref

HERE = os.path.dirname(os.path.abspath(__file__))


def previous_generation_alive() -> list:
    """The classes of the first import still alive after a re-import. The
    first import serves one CLI call, so its cached parser is part of what
    must be freed."""
    import hyperdox
    import hyperdox.cli

    with contextlib.redirect_stdout(io.StringIO()):
        hyperdox.cli.main(["--json", "validate", os.path.join(HERE, "fixtures", "five_worlds_k.json")])
    classes = {
        "formula.Formula": hyperdox.formula.Formula,
        "kernel.Program": hyperdox.kernel.Program,
        "proofcheck.ProofStep": hyperdox.proofcheck.ProofStep,
    }
    refs = {name: weakref.ref(cls) for name, cls in classes.items()}
    del hyperdox, classes
    for name in [m for m in sys.modules if m == "hyperdox" or m.startswith("hyperdox.")]:
        del sys.modules[name]
    import hyperdox  # noqa: F401
    gc.collect()
    return [name for name, ref in refs.items() if ref() is not None]


def test_reimport_frees_previous_package():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "re-import: the previous package is freed\n"


if __name__ == "__main__":
    alive = previous_generation_alive()
    if alive:
        print("re-import: the previous package is still alive through " + ", ".join(alive))
        sys.exit(1)
    print("re-import: the previous package is freed")
