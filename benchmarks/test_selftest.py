"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q benchmarks/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pairinglab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_span_counts_and_self_time_arithmetic():
    """Hand-counted call sequence on a fake two-module package:

    op (root, 1 ns of its own)
      outer (layer a, 3 + 2 ns of its own)
        inner via module b (layer b, 5 ns)
        inner via the from-import binding in module a (layer b, 5 ns)
          inner nested in itself is not a new entry (layer b, 7 ns)
    """
    clock = FakeClock()
    mod_a = types.ModuleType("fake_a")
    mod_b = types.ModuleType("fake_b")

    def inner(depth=0):
        clock.now += 5 if depth == 0 else 7
        if depth == 0 and clock.now > 12:
            mod_b.inner(depth + 1)

    def outer():
        clock.now += 3
        mod_b.inner()
        clock.now += 2
        mod_a.inner()

    mod_b.inner = inner
    mod_a.inner = inner  # as ``from fake_b import inner`` would bind it
    mod_a.outer = outer

    tracer = tracing.Tracer(clock=clock)
    tracer.install_functions({outer: tracer.wrap(outer, "a"), inner: tracer.wrap(inner, "b")},
                             [mod_a, mod_b])
    assert mod_a.inner is mod_b.inner is not inner

    def op():
        clock.now += 1
        mod_a.outer()

    tracer.run_op("op", op)
    a, b, root = tracer.layers["a"], tracer.layers["b"], tracer.layers[tracing.ROOT_LAYER]
    assert (a.calls, a.spans, a.self_ns) == (1, 1, 5)
    assert (b.calls, b.spans, b.self_ns) == (2, 3, 17)
    assert root.self_ns == 1
    assert root.self_ns + a.self_ns + b.self_ns == clock.now == 23
    assert tracer.ops == 1

    tracer.uninstall()
    assert mod_a.inner is inner and mod_b.inner is inner and mod_a.outer is outer


def test_calls_outside_an_op_are_not_recorded():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pairinglab.DensityMatrix(np.eye(2) / 2)
        np.linalg.svd(np.eye(3))
    finally:
        tracer.uninstall()
    assert not tracer.layers


def test_decomposition_counter_and_real_bindings():
    tracer = tracing.Tracer()
    originals = (pairinglab.verify.majorizes, pairinglab.majorization.majorizes,
                 np.linalg.svd, pairinglab.verify.SUITES["witness"])
    tracer.install()
    try:
        # every binding of a public function is the same wrapper
        assert pairinglab.verify.majorizes is pairinglab.majorization.majorizes
        assert pairinglab.majorizes is pairinglab.majorization.majorizes
        assert pairinglab.verify.majorizes is not originals[0]
        assert pairinglab.verify.SUITES["witness"] is pairinglab.verify.suite_witness
        assert pairinglab.verify.SUITES["witness"] is not originals[3]

        def op():
            np.linalg.svd(np.ones((4, 6)), compute_uv=False)
            np.linalg.eigvalsh(np.stack([np.eye(5)] * 3))
            pairinglab.verify.majorizes([1.0, 0.0], [0.5, 0.5])
            # randgen binds DensityMatrix by from-import; validation is
            # patched on the class, so it is seen through every binding
            pairinglab.randgen.DensityMatrix(np.eye(3) / 3)

        tracer.run_op("op", op)
    finally:
        tracer.uninstall()
    decomp = tracer.layers[tracing.DECOMP_LAYER]
    # svd of 4x6: 4*6*4; eigvalsh of a (3, 5, 5) stack: 3*5**3
    assert decomp.calls == 3  # two direct calls plus the validation's eigvalsh
    assert decomp.n3 == 4 * 6 * 4 + 3 * 125 + 27
    assert tracer.layers["majorization"].calls == 1
    validate = tracer.layers[tracing.VALIDATE_LAYER]
    assert (validate.calls, validate.n3) == (1, 27)
    assert dict(tracer.decomp_by_op) == {
        ("op", "svd", "svd"): [1, 96],
        ("op", "eigvalsh", "eigvalsh"): [1, 375],
        ("op", "__post_init__", "eigvalsh"): [1, 27],
    }
    assert (pairinglab.verify.majorizes, pairinglab.majorization.majorizes,
            np.linalg.svd, pairinglab.verify.SUITES["witness"]) == originals


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _certify_ops():
    ops = workloads.setup_certify_dense(7, Path("."))
    # one state of each decision: accepted cnot_embed, decomposed pairing, rejected
    picks = [ops[1], ops[6], ops[12]]
    assert [op.label.split()[1] for op in picks] == ["cnot_embed", "pairing", "ginibre"]
    return picks


def test_certify_checks_pass_on_correct_results():
    m = run.Measurement()
    m.run_cycle(_certify_ops())
    assert m.failures == [] and len(m.latencies) == 3


def test_injected_wrong_result_raises_error_rate(monkeypatch):
    real = pairinglab.measure_report

    def wrong_n(state, zero_tol=None):
        rep = real(state, zero_tol)
        rep.entries["N"] += 1e-6
        return rep

    monkeypatch.setattr(pairinglab, "measure_report", wrong_n)
    m = run.Measurement()
    m.run_cycle(_certify_ops())
    assert len(m.failures) == 3
    assert all("N vs independent SVD" in reason for _, reason in m.failures)


def test_injected_violation_fails_verify_op(monkeypatch):
    op = workloads.setup_verify_sweep(3, Path("."))[5]  # majorization 3x3
    m = run.Measurement()
    m.run_cycle([op])
    assert m.failures == []
    monkeypatch.setattr(pairinglab.verify.VerifyReport, "ok", property(lambda self: False))
    m.run_cycle([op])
    assert [reason for _, reason in m.failures] == ["exit code 1"]


def test_cli_roundtrip_detects_a_changed_file(tmp_path):
    ops = workloads.setup_cli_roundtrip(5, tmp_path)
    construct_iso = next(op for op in ops if op.label == "construct counterexample")
    m = run.Measurement()
    m.run_cycle([construct_iso])
    m.run_cycle([construct_iso])
    assert m.failures == []
    real_run = construct_iso.run

    def run_then_corrupt():
        result = real_run()
        path = tmp_path / "iso.json"
        path.write_text(path.read_text().replace("0.", "1.", 1))
        return result

    construct_iso.run = run_then_corrupt
    m.run_cycle([construct_iso])
    assert [reason for _, reason in m.failures] == ["iso: file bytes changed between cycles"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_costs_divide_by_the_median_reference_time_nearby():
    m = run.Measurement()
    w = run.REF_WINDOW_S
    # reference runs of 2, 4 and 4 ms within the window of the first two
    # ops, and a slow one of 40 ms far from them
    m.refs = [(0.0, 0.002), (w, 0.004), (2 * w, 0.004), (10 * w, 0.040)]
    m.ops = [(w, 0, 0.008), (w, 0, 0.012), (1.5 * w, 1, 0.002), (10 * w, 1, 0.080)]
    # op 0: 8 and 12 ms over 4 ms -> 2 and 3, median 2.5; op 1: 2 ms over
    # 4 ms and 80 ms over 40 ms -> 0.5 and 2, median 1.25
    costs = m.costs()
    assert costs[0] == pytest.approx([2.0, 3.0]) and costs[1] == pytest.approx([0.5, 2.0])
    assert m.kops_per_ref() == pytest.approx(1000 * 2 / 3.75)


def test_reference_runs_bracket_every_op():
    ops = [workloads.Op(f"op{i}", lambda: None, lambda r: None) for i in range(3)]
    m = run.Measurement()
    m.run_cycle(ops)
    m.run_cycle(ops)
    assert len(m.latencies) == 6 and m.failures == []
    assert len(m.refs) >= 4  # at least one before and one after each cycle
    ref_times = [t for t, _ in m.refs]
    assert all(min(ref_times) < t < max(ref_times) for t, _, _ in m.ops)
    assert [i for _, i, _ in m.ops] == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cycle_length_keeps_percentiles_inside_one_op_kind(workload, tmp_path):
    assert len(workloads.WORKLOADS[workload](0, tmp_path)) % 10 == 5
