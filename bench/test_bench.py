"""The benchmark's own tests: tiny-size runs of every workload.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("# report ")
    return json.loads(lines[-2][len("# report "):]), json.loads(lines[-1])


def test_spec_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            names.append(metric["name"])
            assert UNIT_RE.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_traces_without_changing_outputs(workload):
    report, result = _parse(_run(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_ratio"] == 0.0
    assert {"blas_threads", "nproc", "cpu", "python", "numpy", "blas"} <= set(report["machine"])

    traced_report, traced = _parse(_run(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    assert traced["correct"] and traced_report["digests_agree"]
    assert traced_report["digest"] == report["digest"]


def test_tracer_restores_every_wrapped_function():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import querysumm
        import tracing
    finally:
        del sys.path[:2]
    modules = [m for name, m in sys.modules.items() if name.startswith("querysumm")]
    classes = [*tracing.BLOCKS.values(), *(cls for cls, _, _ in tracing.METHODS)]

    def snapshot():
        return [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]

    before = snapshot()
    rouge_n = querysumm.rouge.rouge_n
    tracer = tracing.Tracer()
    tracer.install()
    # data binds rouge_n by name; both bindings must lead to one wrapper.
    assert querysumm.data.rouge_n is querysumm.rouge.rouge_n
    assert querysumm.data.rouge_n.__wrapped__ is rouge_n
    assert snapshot() != before
    tracer.remove()
    assert snapshot() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("build", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
