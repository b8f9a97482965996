"""The retrieval, dataset, metric, autodiff and transfer demos run to
completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_build_datasets.py",
        "02_bm25_retrieval.py",
        "03_rouge_metrics.py",
        "04_autodiff_core.py",
        "06_transfer_pipeline.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
