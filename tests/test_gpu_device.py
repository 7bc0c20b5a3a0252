"""Unit tests for the device cost models."""

import pytest

from repro.gpu.device import CPUModel, DeviceModel


class TestDeviceModel:
    def test_parallel_cycles_scale_with_cores(self):
        small = DeviceModel(n_cores=10)
        big = DeviceModel(n_cores=100)
        work = 1e6
        assert small.parallel_cycles(work) == pytest.approx(
            10 * big.parallel_cycles(work))

    def test_divergence_penalty(self):
        dev = DeviceModel()
        assert dev.parallel_cycles(100.0, divergence=2.0) == pytest.approx(
            2 * dev.parallel_cycles(100.0))

    def test_invalid_divergence(self):
        with pytest.raises(ValueError):
            DeviceModel().parallel_cycles(1.0, divergence=0.5)

    def test_negative_work(self):
        with pytest.raises(ValueError):
            DeviceModel().parallel_cycles(-1.0)

    def test_seconds_conversion(self):
        dev = DeviceModel(clock_hz=1e9)
        assert dev.seconds(1e9) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DeviceModel(n_cores=0)
        with pytest.raises(ValueError):
            CPUModel(clock_hz=0)
