"""Kept only for :mod:`repro.exec.executor`'s re-export of ``run_plan``."""
