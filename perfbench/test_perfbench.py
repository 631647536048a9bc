"""The benchmark's own tests. Run with ``python -m pytest perfbench``.

The per-unit call counts asserted here (``BASELINE`` in ``workloads.py``)
are the seed code's, the baseline that changes removing work (analytic LoRA
gradients, batched sampling, per-cell caches) are judged against; such a
change is expected to move them.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout

checkout.import_craftfaces()

import craftfaces.pipeline  # noqa: E402
from layers import layer_counts, trace_targets  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_unit_counts_match_baseline_and_tracing_keeps_bytes(name, tmp_path):
    wl = WORKLOADS[name]
    inp = wl.setup(0)
    plain = tmp_path / "plain"
    assert wl.check(inp, wl.run(inp, plain), plain) == []

    tr = Tracer()
    traced = tmp_path / "traced"
    with tr.installed(*trace_targets()):
        result = wl.run(inp, traced)
    assert wl.check(inp, result, traced) == []
    assert _sha(traced) == _sha(plain)

    counts = layer_counts(tr, wl.units())
    assert {k: counts[k] for k in wl.BASELINE} == wl.BASELINE


def test_spans_nest_and_self_time_excludes_children():
    tr = Tracer()

    def inner(x):
        return sum(range(x))

    inner_t = tr.wrap("inner", inner)

    def outer(n):
        return [inner_t(10_000) for _ in range(n)]

    tr.wrap("outer", outer)(3)
    assert tr.calls == {"inner": 3, "outer": 1}
    assert tr.parents == [-1, 0, 0, 0]
    assert tr.count_with_parent("inner", "outer") == 3
    assert tr.count_under("inner", "outer") == 3
    assert tr.count_under("outer", "inner") == 0
    assert tr.busy["outer"] >= tr.busy["inner"] > 0.0
    assert tr.self_time["outer"] == pytest.approx(tr.busy["outer"] - tr.busy["inner"])
    assert tr.self_time["inner"] == pytest.approx(tr.busy["inner"])


def test_install_patches_every_module_and_restores():
    original = craftfaces.pipeline.graffiti_stylize
    tr = Tracer()
    with tr.installed(*trace_targets()):
        assert craftfaces.pipeline.graffiti_stylize is not original
        assert craftfaces.facegen.graffiti_stylize is craftfaces.pipeline.graffiti_stylize
    assert craftfaces.pipeline.graffiti_stylize is original
    assert craftfaces.facegen.graffiti_stylize is original


def test_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "order-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
