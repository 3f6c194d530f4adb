import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_pulls_in_no_scipy_integrate_or_optimize():
    # Those two cost most of a cold import (they drag in scipy.special); the
    # package needs neither.  Every module is imported, not only the package
    # root, which loads just fieldgrid and star.
    code = (
        "import sys, starqm, starqm.dynamics, starqm.moments, starqm.operators, "
        "starqm.phasecalc, starqm.symbols; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"
