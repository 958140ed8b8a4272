"""Tests of the public package surface: exports, errors, metadata."""

import importlib

import pytest

import repro
from repro import errors


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_imports(self):
        from repro import AdaptationMode, DRMOracle, workload_by_name  # noqa: F401

    def test_key_classes_exported(self):
        for name in (
            "DRMOracle", "DTMOracle", "RampModel", "CycleSimulator",
            "Platform", "SimulationCache", "WORKLOAD_SUITE", "TARGET_FIT",
        ):
            assert name in repro.__all__


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.config", "repro.workloads", "repro.cpu", "repro.power",
            "repro.thermal", "repro.core", "repro.harness",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.intra", "repro.core.online", "repro.core.combined",
            "repro.core.scaling", "repro.core.tradeoff",
            "repro.core.budget", "repro.core.sensors", "repro.core.controllers",
            "repro.harness.validation", "repro.thermal.report", "repro.cli",
            "repro.lifetime", "repro.lifetime.damage",
            "repro.lifetime.distributions",
            "repro.lifetime.simulator", "repro.lifetime.adversary",
            "repro.kernels.wear",
        ],
    )
    def test_extension_modules_import(self, module):
        importlib.import_module(module)

    def test_no_import_cycles_from_cold_start(self):
        # A fresh import of the deepest consumer must not trip the
        # harness/core cycle guarded in repro.harness.__init__.
        import os
        import subprocess
        import sys
        from pathlib import Path

        # The child process doesn't inherit pytest's pythonpath config.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = "from repro.harness.validation import validate_stack; print('ok')"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.WorkloadError,
            errors.SimulationError,
            errors.ThermalError,
            errors.ReliabilityError,
            errors.QualificationError,
            errors.AdaptationError,
            errors.LifetimeError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_qualification_is_reliability_error(self):
        assert issubclass(errors.QualificationError, errors.ReliabilityError)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.ThermalError("x")

    def test_library_errors_are_not_value_errors(self):
        # Callers must be able to distinguish library errors from
        # programming mistakes.
        assert not issubclass(errors.SimulationError, ValueError)


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module",
        [
            "repro", "repro.constants", "repro.errors", "repro.cli",
            "repro.config.technology", "repro.config.microarch", "repro.config.dvs",
            "repro.workloads.trace", "repro.workloads.generator",
            "repro.workloads.program", "repro.workloads.suite",
            "repro.cpu.pipeline", "repro.cpu.simulator", "repro.cpu.caches",
            "repro.power.model", "repro.thermal.rc_network",
            "repro.core.ramp", "repro.core.qualification", "repro.core.drm",
            "repro.core.dtm", "repro.harness.platform",
            "repro.lifetime", "repro.lifetime.damage",
            "repro.lifetime.distributions",
            "repro.lifetime.simulator", "repro.lifetime.adversary",
            "repro.kernels.wear",
        ],
    )
    def test_module_docstrings_present(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40, module

    def test_public_classes_documented(self):
        import inspect

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented
