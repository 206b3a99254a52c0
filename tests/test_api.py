"""The package's public names: every export resolves and none repeats; a
fit loads no module it does not run; and no module imports a name it does
not use."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import tpsfem

#: fits on the square (auxiliary indicator, alpha by GCV) and on the trimmed
#: domain (recovery indicator), a query, then the CSRBF baseline; prints the
#: scipy.spatial and scipy.special modules loaded before and after it
FOOTPRINT_SCRIPT = """
import json, sys
import numpy as np
import tpsfem
from tpsfem.solver import interpolate

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.spatial", "scipy.special")))

data = tpsfem.peaks_generate(tpsfem.PeaksSpec(n=300), seed=0).normalized()
s, _ = tpsfem.run(data, tpsfem.RunConfig(indicator="auxiliary", max_iters=1))
tpsfem.run(data, tpsfem.RunConfig(domain="irregular", indicator="recovery",
                                  alpha=1e-6, max_iters=1))
pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(1000, 2))
assert np.isfinite(interpolate(s.mesh, s.c, pts)).all()
fit_path = loaded()
model = tpsfem.fit_csrbf(data, "wendland", rho=0.3,
                         control_idx=np.arange(0, 300, 3), alpha=1e-6)
print(json.dumps({"fit_path": fit_path, "baseline": loaded(),
                  "finite": bool(np.isfinite(model.eval(pts)).all())}))
"""


def test_every_exported_name_resolves():
    assert [n for n in tpsfem.__all__ if not hasattr(tpsfem, n)] == []


def test_no_name_exported_twice():
    assert [n for n, k in Counter(tpsfem.__all__).items() if k > 1] == []


def test_fit_and_query_load_no_scipy_spatial_or_special():
    """scipy.spatial brings scipy.special with it, about 0.1 s of start-up
    and 7 MiB of memory that no fit uses; only the baselines load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tpsfem.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["fit_path"] == []
    assert "scipy.spatial" in seen["baseline"] and seen["finite"]


#: module-level imports that their module never reads: ``driver`` imports
#: these so that the tracer of perfbench/ can wrap them where the driver
#: looks them up
TRACED_IMPORTS = {("driver.py", "auxiliary_indicator"),
                  ("driver.py", "recovery_indicator"),
                  ("driver.py", "select_alpha_tps")}


def test_every_module_level_import_is_used():
    """No linter is installed, so this is the check: every name that a
    module of the package (but ``__init__.py``, which re-exports) binds by
    a top-level import is read somewhere in that module."""
    unused = set()
    for path in pathlib.Path(tpsfem.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused |= {(path.name, name) for name in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if name not in read}
    assert unused == TRACED_IMPORTS
