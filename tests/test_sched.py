"""The calibrated autoscheduler: calibration, cost model, planner.

Three layers, tested bottom-up:

* **calibration** — probe records persist as schema-versioned,
  host-stamped, content-addressed JSON; a tiny *real* calibration runs
  the actual fused paths on this host;
* **cost model** — the per-group ``seconds ~= samples * (c + a*lanes)``
  fit recovers synthetic coefficients exactly, and the sharded
  prediction prices the real ``plan_shards`` decomposition plus the
  measured pool overhead;
* **planner** — candidate enumeration respects the two hard rules
  (never oversubscribe, never fork around a thread pool) and picks the
  cheapest plan; synthetic calibrations steer it to each of the three
  plan shapes (single, pooled, threaded) deterministically.

Timing-sensitive acceptance bars (auto within 1.2x of the best hand
plan, >= 2x spread somewhere) live in ``benchmarks/test_bench_planner``
on multi-core hosts; everything here is structural and runs anywhere.
"""

import json

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments import run_experiment
from repro.experiments.runner import results_header
from repro.models.registry import list_families
from repro.parallel.plan import plan_shards
from repro.parallel.spec import EnsembleSpec
from repro.sched import (
    CALIBRATION_ENV,
    SCHEMA_VERSION,
    Calibration,
    CostModel,
    ExecutionPlan,
    Probe,
    default_calibration_path,
    describe_workload,
    enumerate_candidates,
    get_calibration,
    plan_for,
    run_calibration,
)
from repro.sched import calibration as calibration_module
from repro.sched.calibrate import main as calibrate_main
from repro.sched.calibration import probe_drive

FAMILY_NAMES = tuple(family.name for family in list_families())

#: Probe ladder the synthetic calibrations use.
LANES_LADDER = (4, 16, 64)
SAMPLES_LADDER = (64, 256)


def synthetic_calibration(
    coeffs=None,
    pool_base: float = 0.05,
    pool_per_worker: float = 0.01,
    families=FAMILY_NAMES,
) -> Calibration:
    """A calibration whose probes follow exact synthetic cost lines.

    ``coeffs`` maps ``(backend, threads)`` to the ``(c, a)`` of
    ``seconds = samples * (c + a * lanes)`` — noiseless, so the fit
    must recover the line and the planner's choice is deterministic.
    """
    if coeffs is None:
        coeffs = {("numpy", 1): (1e-6, 1e-7)}
    probes = []
    for family in families:
        for (backend, threads), (c, a) in coeffs.items():
            for lanes in LANES_LADDER:
                for samples in SAMPLES_LADDER:
                    probes.append(
                        Probe(
                            family=family,
                            backend=backend,
                            threads=threads,
                            lanes=lanes,
                            samples=samples,
                            seconds=samples * (c + a * lanes),
                        )
                    )
    return Calibration(
        host={"hostname": "synthetic", "cpus": 8, "max_threads": 4},
        probes=tuple(probes),
        pool={
            "base_seconds": pool_base,
            "per_worker_seconds": pool_per_worker,
        },
        created="2026-08-08T00:00:00",
    )


@pytest.fixture
def wide_host(monkeypatch):
    """Pretend this is an unconstrained 8-CPU / 4-thread host, so the
    planner's candidate space opens up regardless of the test runner."""
    import repro.backend as backend_pkg
    import repro.parallel.executor as executor

    monkeypatch.setattr(executor, "available_cpus", lambda: 8)
    monkeypatch.setattr(backend_pkg, "max_threads", lambda: 4)
    monkeypatch.delenv("REPRO_PARALLEL_MAX_WORKERS", raising=False)


class TestCalibrationPersistence:
    def test_roundtrip_preserves_probes_and_id(self, tmp_path):
        calibration = synthetic_calibration()
        target = calibration.save(tmp_path / "cal.json")
        loaded = Calibration.load(target)
        assert loaded.probes == calibration.probes
        assert loaded.pool == calibration.pool
        assert loaded.calibration_id == calibration.calibration_id
        assert len(loaded.calibration_id) == 12

    def test_id_is_content_addressed(self):
        a = synthetic_calibration()
        b = synthetic_calibration(pool_base=0.06)
        assert a.calibration_id != b.calibration_id
        assert a.calibration_id == synthetic_calibration().calibration_id

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = json.loads(synthetic_calibration().to_json())
        payload["schema_version"] = SCHEMA_VERSION + 1
        target = tmp_path / "cal.json"
        target.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="schema"):
            Calibration.load(target)

    def test_non_json_rejected(self, tmp_path):
        target = tmp_path / "cal.json"
        target.write_text("not json {")
        with pytest.raises(ParameterError, match="not JSON"):
            Calibration.load(target)

    def test_missing_file_names_the_cli(self, tmp_path):
        with pytest.raises(ParameterError, match="repro.sched.calibrate"):
            Calibration.load(tmp_path / "absent.json")

    def test_env_overrides_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CALIBRATION_ENV, str(tmp_path / "here.json"))
        assert default_calibration_path() == tmp_path / "here.json"
        monkeypatch.delenv(CALIBRATION_ENV)
        assert str(default_calibration_path()).endswith("calibration.json")

    def test_accessors(self):
        calibration = synthetic_calibration(
            coeffs={("numpy", 1): (1e-6, 1e-7), ("numba", 2): (1e-7, 1e-8)}
        )
        assert calibration.backends == ("numba", "numpy")
        assert calibration.families == tuple(sorted(FAMILY_NAMES))
        assert calibration.thread_counts(FAMILY_NAMES[0], "numba") == (2,)
        assert calibration.thread_counts(FAMILY_NAMES[0], "numpy") == (1,)


class TestGetCalibration:
    def test_creates_once_then_loads(self, tmp_path, monkeypatch):
        calls = []

        def fake_run_calibration(**kwargs):
            calls.append(kwargs)
            return synthetic_calibration()

        monkeypatch.setattr(
            calibration_module, "run_calibration", fake_run_calibration
        )
        target = tmp_path / "cal.json"
        first = get_calibration(target)
        assert target.exists()
        second = get_calibration(target)
        assert len(calls) == 1  # second call loaded the persisted file
        assert first.calibration_id == second.calibration_id

    def test_create_false_requires_existing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="no calibration file"):
            get_calibration(tmp_path / "absent.json", create=False)


class TestRunCalibration:
    def test_probe_budget_validated(self):
        with pytest.raises(ParameterError, match="lanes"):
            run_calibration(lanes=(0, 4), samples=(8,))
        with pytest.raises(ParameterError, match="samples"):
            run_calibration(lanes=(4,), samples=(1,))

    def test_probe_drive_shape(self):
        h = probe_drive(10e3, 32)
        assert len(h) == 32
        peak = float(np.max(np.abs(h)))
        assert 0.95 * 10e3 <= peak <= 10e3  # sine ladder spans the scale
        with pytest.raises(ParameterError, match=">= 2 samples"):
            probe_drive(10e3, 1)

    def test_tiny_real_calibration(self):
        """A real (not synthetic) calibration on this host: the probes
        run the actual fused paths and come back positive and complete,
        whatever backends the host has."""
        calibration = run_calibration(
            families=["timeless"], lanes=(2, 4), samples=(8, 16), repeats=1
        )
        assert calibration.families == ("timeless",)
        assert "numpy" in calibration.backends
        numpy_probes = [
            p
            for p in calibration.probes
            if p.backend == "numpy" and p.threads == 1
        ]
        assert {(p.lanes, p.samples) for p in numpy_probes} == {
            (2, 8), (2, 16), (4, 8), (4, 16),
        }
        assert all(p.seconds > 0.0 for p in calibration.probes)
        for key in ("hostname", "cpus", "max_threads", "numpy", "python"):
            assert key in calibration.host
        assert calibration.pool["base_seconds"] >= 0.0
        assert calibration.pool["per_worker_seconds"] >= 0.0
        # and the result is model- and persistence-ready
        CostModel.from_calibration(calibration)
        Calibration.from_json(calibration.to_json())


class TestCalibrateCli:
    def test_writes_file_and_reports(self, tmp_path, capsys):
        target = tmp_path / "cal.json"
        code = calibrate_main(
            [
                "--output", str(target),
                "--lanes", "2", "4",
                "--samples", "8", "16",
                "--repeats", "1",
            ]
        )
        assert code == 0
        calibration = Calibration.load(target)
        assert set(calibration.families) == set(FAMILY_NAMES)
        out = capsys.readouterr().out
        assert f"wrote {target}" in out
        assert calibration.calibration_id in out


class TestCostModel:
    def test_fit_recovers_synthetic_line(self):
        c, a = 2e-6, 3e-7
        model = CostModel.from_calibration(
            synthetic_calibration(coeffs={("numpy", 1): (c, a)})
        )
        fit = model.fit_for(FAMILY_NAMES[0], "numpy")
        assert fit.c == pytest.approx(c, rel=1e-6)
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert model.predict_single(
            FAMILY_NAMES[0], "numpy", lanes=32, samples=1000
        ) == pytest.approx(1000 * (c + a * 32), rel=1e-6)

    def test_single_lanes_ladder_attributes_all_cost_to_lanes(self):
        probes = tuple(
            Probe(
                family="timeless",
                backend="numpy",
                threads=1,
                lanes=8,
                samples=samples,
                seconds=samples * 4e-6,
            )
            for samples in (64, 256)
        )
        calibration = synthetic_calibration()
        model = CostModel.from_calibration(
            Calibration(
                host=calibration.host, probes=probes, pool=calibration.pool
            )
        )
        fit = model.fit_for("timeless", "numpy")
        assert fit.c == 0.0
        assert fit.a == pytest.approx(4e-6 / 8, rel=1e-6)

    def test_noise_never_fits_negative_coefficients(self):
        # Decreasing seconds with lanes would fit a < 0: clamp to zero.
        probes = tuple(
            Probe(
                family="timeless",
                backend="numpy",
                threads=1,
                lanes=lanes,
                samples=64,
                seconds=64 * (1e-5 - 1e-7 * lanes),
            )
            for lanes in LANES_LADDER
        )
        calibration = synthetic_calibration()
        model = CostModel.from_calibration(
            Calibration(
                host=calibration.host, probes=probes, pool=calibration.pool
            )
        )
        fit = model.fit_for("timeless", "numpy")
        assert fit.a == 0.0
        assert fit.c >= 0.0

    def test_sharded_prediction_prices_real_decomposition(self):
        c, a = 1e-6, 1e-7
        base, per_worker = 0.05, 0.01
        model = CostModel.from_calibration(
            synthetic_calibration(
                coeffs={("numpy", 1): (c, a)},
                pool_base=base,
                pool_per_worker=per_worker,
            )
        )
        lanes, samples, workers = 10, 500, 3
        shards = plan_shards(lanes, workers)
        widest = max(stop - start for start, stop in shards)
        assert widest == 4  # 10 lanes over 3 workers: 4 + 3 + 3
        expected = (
            base + per_worker * len(shards) + samples * (c + a * widest)
        )
        assert model.predict_sharded(
            FAMILY_NAMES[0], "numpy", lanes, samples, workers
        ) == pytest.approx(expected, rel=1e-6)

    def test_unknown_groups_price_as_none(self):
        model = CostModel.from_calibration(synthetic_calibration())
        assert model.fit_for("timeless", "no-such-backend") is None
        assert model.fit_for("timeless", "numpy", threads=2) is None
        assert model.predict_single("timeless", "numpy", 4, 64, threads=2) \
            is None
        assert model.predict_sharded("no-such", "numpy", 4, 64, 2) is None

    def test_empty_calibration_rejected(self):
        calibration = synthetic_calibration()
        with pytest.raises(ParameterError, match="no probes"):
            CostModel.from_calibration(
                Calibration(
                    host=calibration.host, probes=(), pool=calibration.pool
                )
            )


class TestExecutionPlan:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_sub_one_workers_rejected(self, workers):
        with pytest.raises(ParameterError, match="n_workers"):
            ExecutionPlan(backend="numpy", n_workers=workers)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_sub_one_threads_rejected(self, threads):
        with pytest.raises(ParameterError, match="threads_per_worker"):
            ExecutionPlan(backend="numpy", threads_per_worker=threads)

    def test_pool_and_threads_never_compose(self):
        """The fork-safety rule is structural: such a plan cannot even
        be constructed, so no code path needs to defend against it."""
        with pytest.raises(ParameterError, match="fork"):
            ExecutionPlan(backend="numba", n_workers=2, threads_per_worker=2)

    def test_describe(self):
        assert (
            ExecutionPlan(backend="numpy", n_workers=4).describe()
            == "numpy x4w/1t"
        )
        described = ExecutionPlan(
            backend="numba",
            threads_per_worker=2,
            predicted_seconds=0.125,
        ).describe()
        assert described.startswith("numba x1w/2t")
        assert "0.125" in described


class TestDescribeWorkload:
    def test_spec_with_sample_count(self):
        spec = EnsembleSpec(family="timeless", n_cores=12, seed=1)
        assert describe_workload(spec, samples=300) == ("timeless", 12, 300)

    def test_spec_with_sample_array(self):
        spec = EnsembleSpec(family="preisach", n_cores=3, seed=1)
        assert describe_workload(spec, np.zeros(41)) == ("preisach", 3, 41)

    def test_live_batch(self):
        family = list_families()[0]
        batch = family.make_batch(5, seed=0)
        assert describe_workload(batch, samples=10) == (family.name, 5, 10)

    def test_unplannable_source_rejected(self):
        with pytest.raises(ParameterError, match="cannot plan"):
            describe_workload({"not": "a source"}, samples=10)

    def test_drive_length_required(self):
        spec = EnsembleSpec(family="timeless", n_cores=2, seed=0)
        with pytest.raises(ParameterError, match="drive length"):
            describe_workload(spec)
        with pytest.raises(ParameterError, match="0-sample"):
            describe_workload(spec, samples=0)


class TestEnumerateCandidates:
    def test_candidates_obey_hard_rules_and_ordering(self, wide_host):
        model = CostModel.from_calibration(
            synthetic_calibration(
                coeffs={("numpy", 1): (1e-6, 1e-4), ("numpy", 4): (1e-6, 3e-5)}
            )
        )
        candidates = enumerate_candidates(
            model, FAMILY_NAMES[0], lanes=64, samples=256
        )
        assert len(candidates) >= 3  # single, threaded, pooled widths
        seconds = [plan.predicted_seconds for plan in candidates]
        assert seconds == sorted(seconds)  # cheapest first
        for plan in candidates:
            # never oversubscribed, never forked around a thread pool
            assert plan.n_workers * plan.threads_per_worker <= 8
            assert not (plan.n_workers > 1 and plan.threads_per_worker > 1)
            assert plan.source == "auto"
            assert plan.calibration_id == model.calibration_id

    def test_pool_never_wider_than_lanes(self, wide_host):
        model = CostModel.from_calibration(synthetic_calibration())
        candidates = enumerate_candidates(
            model, FAMILY_NAMES[0], lanes=3, samples=256
        )
        assert max(plan.n_workers for plan in candidates) <= 3

    def test_thread_counts_above_host_cap_skipped(self, wide_host, monkeypatch):
        import repro.backend as backend_pkg

        monkeypatch.setattr(backend_pkg, "max_threads", lambda: 2)
        model = CostModel.from_calibration(
            synthetic_calibration(
                coeffs={("numpy", 1): (1e-6, 1e-4), ("numpy", 4): (0.0, 0.0)}
            )
        )
        candidates = enumerate_candidates(
            model, FAMILY_NAMES[0], lanes=64, samples=256
        )
        # threads=4 would be free, but this host cannot pin 4 threads
        assert all(plan.threads_per_worker <= 2 for plan in candidates)

    def test_uncalibrated_family_rejected(self, wide_host):
        model = CostModel.from_calibration(
            synthetic_calibration(families=("timeless",))
        )
        with pytest.raises(ParameterError, match="no probes for family"):
            enumerate_candidates(model, "preisach", lanes=4, samples=64)


class TestPlanFor:
    """Synthetic cost lines steer plan_for to each plan shape."""

    SPEC = EnsembleSpec(family="timeless", n_cores=64, seed=0)

    def test_picks_pooled_when_overhead_is_cheap(self, wide_host):
        plan = plan_for(
            self.SPEC,
            samples=4096,
            calibration=synthetic_calibration(
                coeffs={("numpy", 1): (1e-7, 1e-4)},
                pool_base=1e-3,
                pool_per_worker=1e-4,
            ),
        )
        assert plan.n_workers == 8  # widest pool wins: makespan / 8
        assert plan.threads_per_worker == 1
        assert plan.backend == "numpy"

    def test_picks_single_when_overhead_dominates(self, wide_host):
        plan = plan_for(
            self.SPEC,
            samples=64,
            calibration=synthetic_calibration(
                coeffs={("numpy", 1): (1e-9, 1e-9)},
                pool_base=5.0,
                pool_per_worker=1.0,
            ),
        )
        assert plan.n_workers == 1
        assert plan.threads_per_worker == 1

    def test_picks_threads_when_threaded_fit_is_cheapest(self, wide_host):
        plan = plan_for(
            self.SPEC,
            samples=4096,
            calibration=synthetic_calibration(
                coeffs={
                    ("numba", 1): (1e-7, 1e-4),
                    ("numba", 4): (1e-7, 1e-5),
                },
                pool_base=5.0,  # pooling priced out by fork cost
                pool_per_worker=1.0,
            ),
        )
        assert plan.backend == "numba"
        assert plan.n_workers == 1
        assert plan.threads_per_worker == 4
        assert plan.source == "auto"

    def test_respects_max_workers_cap(self, wide_host, monkeypatch):
        """The width cap is the executor's: REPRO_PARALLEL_MAX_WORKERS
        bounds the pooled candidates on an 8-CPU host."""
        monkeypatch.setenv("REPRO_PARALLEL_MAX_WORKERS", "2")
        plan = plan_for(
            self.SPEC,
            samples=4096,
            calibration=synthetic_calibration(
                coeffs={("numpy", 1): (1e-7, 1e-4)},
                pool_base=1e-3,
                pool_per_worker=1e-4,
            ),
        )
        assert plan.n_workers == 2

    def test_auto_uses_persisted_calibration(
        self, tmp_path, monkeypatch, wide_host
    ):
        target = tmp_path / "cal.json"
        synthetic_calibration(
            coeffs={("numpy", 1): (1e-7, 1e-4)},
            pool_base=1e-3,
            pool_per_worker=1e-4,
        ).save(target)
        monkeypatch.setenv(CALIBRATION_ENV, str(target))
        plan = plan_for(self.SPEC, samples=4096)
        assert plan.source == "auto"
        assert plan.n_workers == 8


class TestResultsHeader:
    def test_field_order_and_omission(self):
        assert results_header(backend="numpy") == "# backend: numpy\n"
        assert results_header(backend="numpy", workers=4) == (
            "# backend: numpy\n# workers: 4\n"
        )
        assert results_header(
            backend="numba", workers=1, threads=2, calibration="abc123def456"
        ) == (
            "# backend: numba\n"
            "# workers: 1\n"
            "# threads: 2\n"
            "# calibration: abc123def456\n"
        )
        assert results_header() == ""


class TestPlannerExperimentSmoke:
    def test_exp_b6_structure_and_correctness(self):
        """EXP-B6 at smoke scale: on any host (including 1 CPU) every
        measured plan must be correct and the auto plan must land; the
        timing bars are asserted only at benchmark scale."""
        result = run_experiment(
            "EXP-B6",
            sizes=(4,),
            repeats=1,
            probe_lanes=(2, 4),
            probe_samples=(8, 16),
            probe_repeats=1,
        )
        data = result.data
        assert data["sizes"] == [4]
        assert "numpy single" in data["plans"]
        assert len(data["calibration_id"]) == 12
        for row in data["rows"]:
            assert row["equivalence_ok"], row
        auto_rows = [row for row in data["rows"] if row["auto"]]
        assert len(auto_rows) == len(FAMILY_NAMES)
        for family in FAMILY_NAMES:
            cell = data[f"cells"][f"{family}@4"]
            assert cell["auto_vs_best"] > 0.0
            assert cell["spread"] >= 1.0
        assert "hand plans vs plan='auto'" in result.render()


class TestAtomicCalibrationSave:
    def test_save_replaces_in_one_rename(self, tmp_path, monkeypatch):
        """save() stages the JSON in a temp file in the target's own
        directory and os.replace()s it — same-filesystem rename, so a
        racing reader sees either the old complete file or the new."""
        import os

        target = tmp_path / "cal.json"
        synthetic_calibration().save(target)
        new = synthetic_calibration(pool_base=0.07)

        seen = {}
        real_replace = os.replace

        def tracking_replace(src, dst):
            seen["src"], seen["dst"] = str(src), str(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(calibration_module.os, "replace", tracking_replace)
        new.save(target)
        assert seen["dst"] == str(target)
        from pathlib import Path

        assert Path(seen["src"]).parent == target.parent
        assert Calibration.load(target).calibration_id == new.calibration_id

    def test_failed_save_keeps_old_file_and_no_temp_litter(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "cal.json"
        old = synthetic_calibration()
        old.save(target)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(
            calibration_module.os, "replace", exploding_replace
        )
        with pytest.raises(OSError, match="disk full"):
            synthetic_calibration(pool_base=0.07).save(target)
        assert Calibration.load(target).calibration_id == old.calibration_id
        assert list(tmp_path.iterdir()) == [target]
