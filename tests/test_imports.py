"""The import graph: each entry point loads only what it runs, and the
lazy package namespaces keep the public API of the eager ones.

Package ``__init__``s re-export their submodules' names lazily (PEP 562,
:mod:`repro._lazy`); these tests pin both halves of that contract.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.predictors import TABLE2_PREDICTORS
from repro.registry import PREDICTOR_CHOICES

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package whose ``__init__`` re-exports through ``lazy_exports``.
LAZY_PACKAGES = (
    "repro", "repro.analysis", "repro.baselines.cbp5",
    "repro.baselines.champsim", "repro.core", "repro.predictors",
    "repro.sbbt", "repro.serve", "repro.telemetry", "repro.traces",
    "repro.tracing", "repro.utils",
)


def all_module_names() -> list[str]:
    return ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.")]


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def loaded(modules: set[str], package: str) -> set[str]:
    return {name for name in modules
            if name == package or name.startswith(package + ".")}


class TestImportFootprint:
    def test_table3_scalar_setup_loads_no_idle_layer(self):
        # What the layer-ledger's table3-scalar workload imports before
        # its first simulation.
        modules = modules_after(
            "import repro.core.plan, repro.core.simulator\n"
            "from repro.registry import predictor_factory\n"
            "predictor_factory('tage'); predictor_factory('gshare')")
        assert {"repro.core.plan", "repro.predictors.tage",
                "repro.predictors.gshare"} <= modules
        # The interval recorder and the probe load only for a unit that
        # asks for them; digests (hashlib, the writer's encoder) only
        # for a plan that keys or batches.
        for idle in ("repro.core.engine", "repro.core.vectorized",
                     "repro.cache", "repro.serve", "repro.analysis",
                     "repro.baselines", "repro.telemetry", "repro.probe",
                     "multiprocessing", "concurrent.futures", "hashlib",
                     "repro.sbbt.digest", "repro.sbbt.writer"):
            assert not loaded(modules, idle), idle
        other_predictors = {
            name for name in all_module_names()
            if name.startswith("repro.predictors.")} - {
            "repro.predictors.tage", "repro.predictors.gshare"}
        assert other_predictors
        assert not modules & other_predictors

    def test_cli_import_loads_no_engine_or_serve(self):
        modules = modules_after("import repro.cli")
        # ``generate --category`` lists WORKLOAD_CATEGORIES, so no trace
        # generator loads either.
        for idle in ("repro.core.engine", "repro.serve", "repro.cache",
                     "repro.baselines", "repro.traces.workloads",
                     "repro.traces.synth", "multiprocessing",
                     "concurrent.futures"):
            assert not loaded(modules, idle), idle

    def test_workload_categories_name_the_profiles(self):
        from repro.traces import WORKLOAD_CATEGORIES
        from repro.traces.workloads import PROFILES

        assert list(WORKLOAD_CATEGORIES) == sorted(PROFILES)


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            if name == "__version__":
                continue
            value = getattr(module, name)
            definers = [
                other for other in all_module_names()
                if other != package and other.startswith("repro")
                and vars(importlib.import_module(other)).get(name) is value]
            assert definers, f"{package}.{name}"
            assert name in dir(module)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "__no_such_dunder__")

    def test_submodules_resolve_as_attributes(self):
        # As after the eager package imported them.
        assert repro.core.engine is importlib.import_module(
            "repro.core.engine")
        assert repro.predictors is importlib.import_module("repro.predictors")

    def test_examples_library_at_the_package_root(self):
        from repro.predictors.gshare import GShare

        assert repro.GShare is GShare
        assert "GShare" not in repro.__all__

    def test_every_module_imports(self):
        # ``import repro`` no longer imports every submodule, so a broken
        # one would otherwise go unnoticed until first use.
        for name in all_module_names():
            importlib.import_module(name)


class TestRegistryTables:
    def test_keys_and_order(self):
        assert list(PREDICTOR_CHOICES) == [
            "bimodal", "two-level", "gshare", "tournament", "gskew",
            "local", "yags", "perceptron", "tage", "batage"]
        assert list(TABLE2_PREDICTORS) == [
            "Bimodal", "Two-Level", "GShare", "Tournament", "2bc-gskew",
            "Hashed Perc.", "TAGE", "BATAGE"]

    def test_values_are_the_catalog_objects(self):
        from repro.predictors import (GAs, GShare, LocalPredictor, Tage,
                                      mcfarling_tournament)

        assert PREDICTOR_CHOICES["gshare"] is GShare
        assert PREDICTOR_CHOICES["two-level"] is GAs
        assert PREDICTOR_CHOICES["local"] is LocalPredictor
        assert TABLE2_PREDICTORS["TAGE"] is Tage is PREDICTOR_CHOICES["tage"]
        assert TABLE2_PREDICTORS["Tournament"] is mcfarling_tournament

    @pytest.mark.parametrize("table", [PREDICTOR_CHOICES, TABLE2_PREDICTORS])
    def test_values_survive_pickling_as_the_same_object(self, table):
        for name, factory in table.items():
            assert pickle.loads(pickle.dumps(factory)) is factory, name

    def test_read_only(self):
        with pytest.raises(TypeError):
            PREDICTOR_CHOICES["oracle"] = object  # type: ignore[index]
        with pytest.raises(KeyError):
            PREDICTOR_CHOICES["oracle"]
