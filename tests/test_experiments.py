"""Tests for the experiments harness (scales, context, rendering, runner)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import (
    SCALES,
    ExperimentContext,
    ExperimentResult,
    get_scale,
    render_table,
)
from repro.experiments.runner import EXPERIMENTS, run_all

DATA_DIR = Path(__file__).parent / "data"
DETECTION_DIGESTS = (
    "tab5_rows", "tab7_rows", "stage1_predictions",
    "baseline_gbt250_10x24", "stage1_gbt150_6x22_val",
)


class TestScales:
    def test_three_scales_defined(self):
        assert set(SCALES) == {"smoke", "small", "full"}
        assert get_scale("smoke").name == "smoke"
        assert get_scale(SCALES["full"]) is SCALES["full"]
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_full_scale_covers_paper_configuration(self):
        full = get_scale("full")
        assert len(full.benchmarks) == 10
        assert full.bug_types is None
        assert "GBT-250" in full.engines


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "b": 0.5}, {"a": 20, "c": "x"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_empty_rows(self):
        assert render_table([]) == "(no rows)"

    def test_result_to_text(self):
        result = ExperimentResult("x", "Title", [{"v": 1}], notes="note")
        text = result.to_text()
        assert "Title" in text and "note" in text


class TestContext:
    def test_design_sets(self):
        context = ExperimentContext("smoke")
        sets = context.core_designs()
        assert set(sets) == {"I", "II", "III", "IV"}
        assert all(sets.values())
        mem_sets = context.memory_designs()
        assert len(mem_sets["IV"]) == 2

    def test_bug_suites_respect_scale(self):
        context = ExperimentContext("smoke")
        suite = context.core_bugs()
        assert set(suite) == set(context.scale.bug_types)
        assert all(len(v) == 1 for v in suite.values())

    def test_detection_setup_composition(self):
        context = ExperimentContext("smoke")
        setup = context.detection_setup(engine="Lasso")
        assert setup.model_config.engine == "Lasso"
        assert setup.cache is context.cache
        assert len(setup.probes) == 0 or setup.probes[0] is not context.probes[0]

    def test_runtime_wiring(self, tmp_path):
        context = ExperimentContext("smoke", jobs=3, store_path=str(tmp_path / "s"))
        assert context.engine.jobs == 3
        assert context.engine.store is context.store
        assert context.cache.engine is context.engine
        assert context.memory_cache.engine is context.engine
        # The ad-hoc IPC-target memory cache shares the same engine/store.
        setup = context.memory_detection_setup(engine="Lasso", target_metric="ipc")
        assert setup.cache.engine is context.engine

    def test_jobs_default_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert ExperimentContext("smoke").jobs == 5
        monkeypatch.delenv("REPRO_JOBS")
        context = ExperimentContext("smoke")
        assert context.jobs == 1
        assert context.store is None


class TestRunner:
    def test_experiment_registry_complete(self):
        expected = {"fig1", "fig3", "fig4", "tab4", "fig5", "fig6", "tab5", "fig8",
                    "fig9", "fig10", "fig11", "tab6", "fig12", "fig13", "tab7",
                    "mixes"}
        assert set(EXPERIMENTS) == expected

    def test_opt_in_experiments_excluded_by_default(self):
        from repro.experiments.runner import OPT_IN

        assert OPT_IN == {"mixes"}
        default = [e for e in EXPERIMENTS if e not in OPT_IN]
        assert "mixes" not in default and len(default) == len(EXPERIMENTS) - 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_all("smoke", only=["tab99"])


class TestDetectionGolden:
    """Detection outputs must match ``tests/data/golden_detection.json``.

    The digests were computed by ``tests/data/make_golden.py detection``;
    a change to any of them must be deliberate and justified in CHANGES.md.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(DATA_DIR / "golden_detection.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def digests(self):
        spec = importlib.util.spec_from_file_location(
            "make_golden", DATA_DIR / "make_golden.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.detection_digests()

    def test_golden_covers_every_output(self, golden):
        assert set(golden["digests"]) == set(DETECTION_DIGESTS)

    @pytest.mark.parametrize("name", DETECTION_DIGESTS)
    def test_digest_matches_golden(self, golden, digests, name):
        assert digests[name] == golden["digests"][name], (
            f"{name} drifted from tests/data/golden_detection.json "
            "(regenerate via 'make_golden.py detection' ONLY for a "
            "deliberate change, justified in CHANGES.md)"
        )
