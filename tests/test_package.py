import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loaded_modules(imports: str, names: str) -> str:
    """Run `import <imports>` in a fresh interpreter; print the sorted loaded modules matching `names`."""
    code = f"import sys, {imports}; print(sorted(m for m in sys.modules if {names}))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.strip()


def test_import_pulls_in_no_scipy_integrate_or_optimize():
    # Those two cost most of a cold import (they drag in scipy.special); the
    # package needs neither.  Every module is imported, not only the package
    # root, which loads just fieldgrid and star.
    imports = (
        "starqm, starqm.dynamics, starqm.moments, starqm.operators, "
        "starqm.phasecalc, starqm.symbols"
    )
    assert _loaded_modules(imports, "m in ('scipy.integrate', 'scipy.optimize')") == "[]"


def test_package_root_loads_no_scipy():
    # The package root loads fieldgrid and star, which run on numpy alone;
    # the star engine must stay off scipy.fft.
    assert _loaded_modules("starqm", "m == 'scipy' or m.startswith('scipy.')") == "[]"
