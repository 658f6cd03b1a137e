"""Tests for machine-parameter fitting (calibration against benchmarks)."""

import numpy as np
import pytest

from repro.machine import IBM_SP, CpuModel, NetworkModel
from repro.machine.fitting import (
    fit_cpu_params,
    fit_machine,
    fit_network_params,
    kernel_samples,
    pingpong_samples,
)


class TestNetworkFit:
    def test_recovers_nominal_parameters_exactly_from_clean_data(self):
        sizes, rtts = pingpong_samples(IBM_SP, noisy=False)
        fitted = fit_network_params(sizes, rtts, base=IBM_SP.net)
        # clean samples come from the nominal model itself (below the
        # eager limit the structure is exactly affine)
        small = sizes[sizes <= IBM_SP.net.eager_limit]
        small_rtts = rtts[: len(small)]
        refit = fit_network_params(small, small_rtts, base=IBM_SP.net)
        model = NetworkModel(refit)
        nominal = NetworkModel(IBM_SP.net)
        for n in (0, 1024, 8192):
            assert model.transit_time(n) == pytest.approx(nominal.transit_time(n), rel=0.15)

    def test_noisy_fit_close(self):
        sizes, rtts = pingpong_samples(IBM_SP, seed=3, noisy=True)
        fitted = fit_network_params(sizes, rtts, base=IBM_SP.net)
        # ground truth is perturbed (contention): fitted bandwidth should
        # be close to the *effective* (degraded) one
        eff_per_byte = IBM_SP.net.per_byte / IBM_SP.truth.bandwidth_factor
        assert fitted.per_byte == pytest.approx(eff_per_byte, rel=0.25)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_network_params(np.array([8]), np.array([1e-5]))
        with pytest.raises(ValueError):
            fit_network_params(np.array([8, 16]), np.array([1e-5, -1.0]))


class TestCpuFit:
    def test_recovers_parameters_from_clean_data(self):
        ops, ws, times = kernel_samples(IBM_SP, noisy=False)
        fitted = fit_cpu_params(ops, ws, times, base=IBM_SP.cpu)
        assert fitted.time_per_op == pytest.approx(IBM_SP.cpu.time_per_op, rel=0.05)
        assert fitted.mem_factor == pytest.approx(IBM_SP.cpu.mem_factor, rel=0.1)

    def test_fitted_model_predicts_well(self):
        ops, ws, times = kernel_samples(IBM_SP, seed=7, noisy=True)
        fitted = fit_cpu_params(ops, ws, times, base=IBM_SP.cpu)
        cpu = CpuModel(fitted)
        preds = np.array([cpu.task_time(o, w) for o, w in zip(ops, ws)])
        rel_err = np.abs(preds - times) / times
        assert rel_err.max() < 0.1

    def test_monotone_hierarchy_enforced(self):
        # degenerate data where all working sets are tiny: factors stay >= 1
        ops = np.array([1e5, 1e6, 1e7])
        ws = np.array([1024.0, 1024.0, 1024.0])
        times = ops * 2e-8
        fitted = fit_cpu_params(ops, ws, times, base=IBM_SP.cpu)
        assert fitted.mem_factor >= fitted.l2_factor >= 1.0
        assert fitted.time_per_op == pytest.approx(2e-8, rel=0.01)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_cpu_params(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_cpu_params(np.ones(3), np.ones(4), np.ones(3))


class TestFullMachineFit:
    def test_fit_machine_roundtrip(self):
        fitted = fit_machine(
            "my-cluster",
            pingpong_samples(IBM_SP, seed=1),
            kernel_samples(IBM_SP, seed=1),
            base=IBM_SP,
        )
        assert fitted.name == "my-cluster"
        # a simulation on the fitted machine is close to one on the preset
        from repro.apps import build_tomcatv, tomcatv_inputs
        from repro.ir import make_factory
        from repro.sim import ExecMode, Simulator

        inputs = tomcatv_inputs(128, itmax=2)
        a = Simulator(4, make_factory(build_tomcatv(), inputs), IBM_SP, mode=ExecMode.DE).run()
        b = Simulator(4, make_factory(build_tomcatv(), inputs), fitted, mode=ExecMode.DE).run()
        assert b.elapsed == pytest.approx(a.elapsed, rel=0.25)


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported lazily by the one fit that needs it: a fresh
    ``import repro.cli`` (CLI start-up) must not load it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys, repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
