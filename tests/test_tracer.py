"""The benchmark tracer must still find every name it traces.

benchmarks/tracer.py wraps library functions and methods by name, and
`install` raises when a reported or counted name is missing.  Running it
here catches a rename or a merge (for example of
`TensorSimpleFunction.evaluate` or `VarPoly.mul_monomial`) in tier-1 rather
than only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the tracer in a fresh interpreter, then makes one call through
# each named entry point and prints the traced call counts.
SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer as tracing
t = tracing.Tracer()
tracing.install(t)
tracing.self_check()
from intertwine.arch import Place, mu_arch
from intertwine.padic import classical_vector, unramified_params
from intertwine.schwartz import fourier_hat_h, section_su2
mu_arch(Place.COMPLEX, 0.5j, 0.0, 0, 2)
fourier_hat_h(section_su2(0, 2))
classical_vector(unramified_params(5, 0.5j), 1).evaluate(1, 1)
print(json.dumps(t.summary()["calls"]))
"""


def test_tracer_installs_and_wraps_the_named_entry_points():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in (
        "arch.mu_arch",
        "schwartz.fourier_hat_h",
        "exact.VarPoly.mul_monomial",
        "padic.TensorSimpleFunction.evaluate",
    ):
        assert calls.get(name, 0) >= 1, name
