"""The reduction rule that keeps the golden digests independent of the
OpenBLAS kernel.

numpy's OpenBLAS, when built with ``DYNAMIC_ARCH``, picks a kernel for
the CPU at run time, and a BLAS dot product or norm sums in an order
that depends on that kernel. ``similarity`` and the ACF of
``compute_sequence_features`` therefore reduce their 1-D vectors with
``np.add.reduce``. The golden-trace module is re-run here under forced
kernels, and the source is checked for BLAS reductions on those paths.
"""
import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import meta_features, similarity
from tests import reference

ROOT = Path(__file__).resolve().parents[1]
#: forced kernel -> the CPU flag it needs (Prescott runs everywhere)
KERNELS = {"Prescott": None, "Haswell": "avx2", "SkylakeX": "avx512f"}


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags")
            for f in line.split(":", 1)[1].split()}


def _env(core: str) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("core", sorted(KERNELS))
def test_golden_trace_holds_under_kernel(core):
    flag = KERNELS[core]
    if flag is not None and flag not in _cpu_flags():
        pytest.skip(f"this CPU lacks {flag}, which the {core} kernel needs")
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy as np; np.dot(np.ones(3), np.ones(3))"],
        env=_env(core), capture_output=True, text=True, timeout=120)
    if f"Core: {core}" not in probe.stdout + probe.stderr:
        pytest.skip(f"OpenBLAS does not report core {core} when forced: "
                    "not a DYNAMIC_ARCH build")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_golden_trace.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=_env(core), capture_output=True, text=True, timeout=900)
    assert run.returncode == 0, run.stdout[-3000:]


def _blas_reductions(func) -> list[str]:
    """``np.dot``, ``np.linalg.norm`` and ``@`` in the source of ``func``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "norm", "matmul", "vdot",
                                                                "inner"):
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
    return found


@pytest.mark.parametrize("func", [similarity.similarity,
                                  meta_features.compute_sequence_features,
                                  reference._acf],
                         ids=lambda f: f.__name__)
def test_no_blas_reduction(func):
    assert _blas_reductions(func) == []


def test_blas_reduction_check_catches_dot():
    def bad(a, b):
        return a @ b + np.dot(a, b) + np.linalg.norm(a)  # noqa: F821

    assert len(_blas_reductions(bad)) == 3
