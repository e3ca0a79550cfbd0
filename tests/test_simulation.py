"""Designs, data generation, replicated studies, and the local-power table."""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from renyireg import numerics, simulation
from renyireg.exceptions import DegenerateFitError, DomainError
from renyireg.model import Theta
from renyireg.numerics import RngStream, chisq_quantile, noncentral_chisq_sf
from renyireg.simulation import (
    ContaminationSpec,
    DesignSpec,
    StudyConfig,
    contiguous_table,
    generate_data,
    make_design,
    run_study,
    study_result_rows,
    write_study_csv,
)


class TestMakeDesign:
    def test_two_point_rows(self):
        x = make_design(DesignSpec(kind="two_point", n=4, a=1.0, b=5.0))
        np.testing.assert_array_equal(
            x, np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 5.0], [1.0, 5.0]])
        )

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            DesignSpec(kind="two_point", n=5)

    def test_fixed_normal_deterministic(self):
        a = make_design(DesignSpec(kind="fixed_normal", n=100, seed=7))
        b = make_design(DesignSpec(kind="fixed_normal", n=100, seed=7))
        np.testing.assert_array_equal(a, b)
        c = make_design(DesignSpec(kind="fixed_normal", n=100, seed=8))
        assert not np.allclose(a, c)

    def test_fixed_normal_moments(self):
        n = 400
        means, sds = [], []
        for seed in range(20):
            x = make_design(DesignSpec(kind="fixed_normal", n=n, seed=seed))[:, 1]
            means.append(float(np.mean(x)))
            sds.append(float(np.std(x, ddof=1)))
        assert np.all(np.abs(means) < 3.0 / np.sqrt(n))
        assert np.all(np.abs(np.array(sds) - 1.0) < 3.0 / np.sqrt(2 * n))


class TestGenerateData:
    def test_noiseless_limit(self):
        design = make_design(DesignSpec(n=10))
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1e-12)
        y = generate_data(design, theta, None, RngStream(3, 0))
        np.testing.assert_allclose(y, design @ theta.beta, atol=1e-9)

    def test_zero_fraction_matches_clean(self):
        design = make_design(DesignSpec(n=20))
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1.0)
        y1 = generate_data(design, theta, None, RngStream(5, 1))
        y2 = generate_data(design, theta, ContaminationSpec(fraction=0.0), RngStream(5, 1))
        np.testing.assert_array_equal(y1, y2)

    def test_contaminated_count_and_mean(self):
        design = make_design(DesignSpec(n=40))
        theta = Theta(beta=np.array([1.0, 1.0]), sigma=1e-12)
        spec = ContaminationSpec(fraction=0.10)
        y = generate_data(design, theta, spec, RngStream(6, 0))
        bad = np.asarray([1.5, 2.0])
        expected_bad = design[:4] @ bad
        np.testing.assert_allclose(y[:4], expected_bad, atol=1e-9)
        np.testing.assert_allclose(y[4:], (design @ theta.beta)[4:], atol=1e-9)

    def test_random_placement_deterministic(self):
        spec = ContaminationSpec(fraction=0.2, placement="random_indices", placement_seed=11)
        assert np.array_equal(spec.indices(50), spec.indices(50))
        other = ContaminationSpec(fraction=0.2, placement="random_indices", placement_seed=12)
        assert not np.array_equal(spec.indices(50), other.indices(50))


def tiny_config(**kwargs):
    defaults = dict(
        design=DesignSpec(n=40),
        alphas=(0.0, 0.5),
        replications=30,
        seed=99,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestRunStudy:
    def test_needs_alphas_and_hypotheses(self):
        with pytest.raises(DomainError):
            tiny_config(alphas=())
        with pytest.raises(DomainError):
            tiny_config(hypotheses=())

    def test_deterministic_across_worker_counts(self):
        serial = run_study(tiny_config(n_workers=1))
        parallel = run_study(tiny_config(n_workers=2))
        assert study_result_rows(serial) == study_result_rows(parallel)

    @pytest.mark.parametrize("block", [1, 7])
    def test_csv_bytes_do_not_depend_on_pool_chunks(self, block, tmp_path, monkeypatch):
        # 24 replications over two sample sizes: blocks of 7 leave a short
        # last block at each n
        config = tiny_config(sample_sizes=(20, 40), replications=12)
        write_study_csv(run_study(config), tmp_path / "serial.csv")
        tasks = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks.extend((n, start, stop) for _, n, start, stop in iterables[0])
                assert kwargs["chunksize"] == 1
                return super().map(fn, *iterables, **kwargs)

        # run_study reads the pool from concurrent.futures when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulation, "_BLOCK", block)
        pooled = run_study(dataclasses.replace(config, n_workers=2))
        write_study_csv(pooled, tmp_path / "pooled.csv")
        starts = range(0, 12, block)
        assert tasks == [(n, s, min(s + block, 12)) for n in (20, 40) for s in starts]
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_deterministic_repeat(self):
        r1 = run_study(tiny_config())
        r2 = run_study(tiny_config())
        assert study_result_rows(r1) == study_result_rows(r2)

    def test_seed_changes_results(self):
        r1 = run_study(tiny_config())
        r2 = run_study(tiny_config(seed=100))
        assert study_result_rows(r1) != study_result_rows(r2)

    def test_cells_and_ranges(self):
        result = run_study(tiny_config())
        assert set(result.cells) == {(0.0, 40), (0.5, 40)}
        for cell in result.cells.values():
            assert cell["rmse"] >= 0.0
            for value in cell["level"].values():
                assert 0.0 <= value <= 1.0
            for value in cell["power"].values():
                assert 0.0 <= value <= 1.0

    def test_power_exceeds_level_at_distant_alternative(self):
        # the beta1 alternative 0.45 sits far from the null at n = 40
        result = run_study(tiny_config(replications=60))
        cell = result.cells[(0.0, 40)]
        assert cell["power"]["beta1"] > cell["level"]["beta1"]

    def test_sample_size_sweep(self):
        result = run_study(tiny_config(sample_sizes=(20, 40)))
        assert set(result.cells) == {(0.0, 20), (0.5, 20), (0.0, 40), (0.5, 40)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_sample_size_owns_its_block(self, workers, monkeypatch):
        # replication streams do not depend on n, so a sweep's cells equal
        # those of one study per sample size
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        swept = run_study(tiny_config(sample_sizes=(20, 40), n_workers=workers))
        assert len(pools) == (1 if workers > 1 else 0)
        for n in (20, 40):
            alone = run_study(tiny_config(sample_sizes=(n,), n_workers=workers))
            assert {key: cell for key, cell in swept.cells.items() if key[1] == n} == alone.cells

    @pytest.mark.parametrize("workers, opened", [(64, 8), (3, 3)])
    def test_pool_is_sized_by_the_work(self, workers, opened, monkeypatch):
        # a pool starts all its workers at its first task, so a study of 8
        # blocks (16 replications) asks for at most 8; the fake maps
        # in-process, so a broken cap starts no process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(simulation, "_BLOCK", 2)
        config = tiny_config(sample_sizes=(20, 40), replications=8)
        pooled = run_study(dataclasses.replace(config, n_workers=workers))
        assert sizes == [opened]
        assert study_result_rows(pooled) == study_result_rows(run_study(config))

    def test_design_is_checked_once_per_block(self, monkeypatch):
        # 3 blocks of at most 5 replications at each n, 3 draws per
        # replication; the design's 2 x 2 X'X/n is rank-checked once per block
        grams = []
        real = numerics.scaled_min_eigenvalue
        monkeypatch.setattr(
            numerics, "scaled_min_eigenvalue", lambda gram: grams.append(np.shape(gram)) or real(gram)
        )
        monkeypatch.setattr(simulation, "_BLOCK", 5)
        run_study(tiny_config(sample_sizes=(20, 40), replications=12))
        assert grams.count((2, 2)) == 6
        # the hypotheses pin single coordinates, and no restriction matrix is built
        assert grams.count((1, 1)) == 0

    def test_failed_fits_are_counted_per_cell(self, monkeypatch):
        # fits run in draw order, three per replication (the null, then the
        # beta1 and sigma alternatives); a DegenerateFitError ends its
        # replication, which is excluded from every cell
        degenerate = {(2, 0), (5, 2)}  # (replication, draw)
        unconverged = (6, 1, 0.5)  # (replication, draw, alpha)
        real_fit = simulation.fit_rp_path
        state = {"rep": 0, "draw": 0}
        owner, null_fits = {}, {}

        def fake_fit(data, alphas, options=None):
            rep, draw = state["rep"], state["draw"]
            last = draw == 2 or (rep, draw) in degenerate
            state.update(rep=rep + last, draw=0 if last else draw + 1)
            if (rep, draw) in degenerate:
                raise DegenerateFitError("planned")
            fits = real_fit(data, alphas)
            if (rep, draw) == unconverged[:2]:
                a = unconverged[2]
                fits[a] = dataclasses.replace(fits[a], converged=False)
            for fit in fits.values():
                owner[id(fit)] = (rep, fit)  # the fit stays alive, so ids stay unique
            if draw == 0:
                null_fits[rep] = fits
            return fits

        def fake_p_value(fit, index, value, n):
            # odd replications reject every hypothesis on every draw
            return 0.0 if owner[id(fit)][0] % 2 == 1 else 1.0

        monkeypatch.setattr(simulation, "fit_rp_path", fake_fit)
        monkeypatch.setattr(simulation, "_coordinate_p_value", fake_p_value)
        with pytest.warns(UserWarning, match="6.2% of fits did not converge"):
            result = run_study(tiny_config(replications=8, n_workers=1))

        truth = np.array([1.0, 1.0, 1.0])
        kept = {0.0: [0, 1, 3, 4, 6, 7], 0.5: [0, 1, 3, 4, 7]}
        for a, reps in kept.items():
            cell = result.cells[(a, 40)]
            used = len(reps)
            share = sum(rep % 2 for rep in reps) / used
            errors = [null_fits[rep][a].theta_hat.to_array() - truth for rep in reps]
            assert cell["replications_used"] == used
            assert cell["non_converged"] == (1 if a == 0.5 else 0)
            assert cell["level"] == {"beta1": share, "sigma": share}
            assert cell["power"] == {"beta1": share, "sigma": share}
            assert cell["rmse"] == float(np.sqrt(np.mean([float(e @ e) for e in errors])))
        assert result.non_convergence_count == 1
        # two degenerate replications, excluded from each of the two cells
        assert result.excluded_replications == 4

    def test_empty_cell_raises(self, monkeypatch):
        def degenerate(data, alphas, options=None):
            raise DegenerateFitError("planned")

        monkeypatch.setattr(simulation, "fit_rp_path", degenerate)
        with pytest.raises(DegenerateFitError, match="study is empty"):
            run_study(tiny_config(replications=2))

    def test_csv_round_trip(self, tmp_path):
        result = run_study(tiny_config())
        path = tmp_path / "study.csv"
        write_study_csv(result, path)
        import csv as csv_mod

        with open(path) as handle:
            rows = list(csv_mod.DictReader(handle))
        originals = study_result_rows(result)
        assert len(rows) == len(originals)
        for got, want in zip(rows, originals):
            assert float(got["rmse_theta"]) == want["rmse_theta"]
            assert float(got["empirical_level"]) == want["empirical_level"]


class TestStudyConfigChecks:
    """A configuration the study cannot run is refused when it is built,
    not from inside a replication block or a pool worker."""

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"true_beta": (1.0,)}, "true_beta needs 2 entries"),
            ({"true_beta": (1.0, 2.0, 3.0)}, "true_beta needs 2 entries"),
            (
                {"contamination": ContaminationSpec(contaminating_beta=(1.5, 2.0, 0.0))},
                "contaminating_beta needs 2 entries",
            ),
            ({"hypotheses": (("beta1", 3, 1.0, None),)}, "index 3 outside 0..2"),
            ({"hypotheses": (("sigma", -1, 1.0, 0.8),)}, "index -1 outside 0..2"),
            ({"n_workers": 0}, "worker"),
            ({"n_workers": -3}, "worker"),
            ({"sample_sizes": (20, 21)}, "even n, got 21"),
            ({"sample_sizes": (2,)}, "n >= 4, got 2"),
            ({"design": DesignSpec(kind="fixed_normal"), "sample_sizes": (3,)}, "n >= 4, got 3"),
            ({"sample_sizes": (20, 40, 20)}, "repeat"),
            ({"alphas": (0.5, 0.5, 0.0)}, "alphas repeat"),
            (
                {"hypotheses": (("beta1", 1, 1.0, 0.45), ("beta1", 1, 1.0, 0.8))},
                "hypothesis names repeat",
            ),
            ({"replications": 0}, "at least one replication"),
            # generating parameters, refused here and not in a replication block
            ({"true_sigma": math.nan}, "true_sigma must be finite and positive"),
            ({"true_sigma": math.inf}, "true_sigma must be finite and positive"),
            ({"true_sigma": -1.0}, "true_sigma must be finite and positive"),
            ({"true_sigma": 0.0}, "true_sigma must be finite and positive"),
            ({"true_beta": (math.nan, 1.0)}, "true_beta must be finite"),
            ({"true_beta": (1.0, -math.inf)}, "true_beta must be finite"),
            (
                {"contamination": ContaminationSpec(contaminating_beta=(1.5, math.nan))},
                "contaminating_beta must be finite",
            ),
        ],
    )
    def test_refused_when_built(self, changes, named):
        with pytest.raises(DomainError, match=named):
            StudyConfig(**changes)

    @pytest.mark.parametrize(
        "spec, fields, named",
        [
            (DesignSpec, {"kind": "uniform"}, "unknown design kind 'uniform'"),
            (ContaminationSpec, {"fraction": 0.5}, r"fraction must lie in \[0, 0.5\)"),
            (ContaminationSpec, {"fraction": -0.1}, r"fraction must lie in \[0, 0.5\)"),
            (ContaminationSpec, {"placement": "last_block"}, "unknown placement 'last_block'"),
        ],
    )
    def test_spec_refused_when_built(self, spec, fields, named):
        with pytest.raises(DomainError, match=named):
            spec(**fields)

    def test_odd_n_allowed_on_a_normal_design(self):
        config = StudyConfig(design=DesignSpec(kind="fixed_normal"), sample_sizes=(21, 40))
        assert config.ns == (21, 40)


class TestContiguousTable:
    def test_zero_shift_column_is_level(self):
        table = contiguous_table([0.0, 0.5, 1.5], [0.0, 5.0], sigma=1.0, level=0.05)
        for row in table.values():
            assert row[0.0] == 0.05

    def test_published_cells(self):
        table = contiguous_table([0.0, 0.2, 0.5, 1.0], [0.0, 5.0, 10.0, 20.0, 30.0], 1.0, 0.05)
        assert table[0.0][10.0] == pytest.approx(0.88, abs=0.01)
        assert table[0.5][10.0] == pytest.approx(0.81, abs=0.02)
        assert table[1.0][20.0] == pytest.approx(0.95, abs=0.02)
        assert table[0.2][30.0] == pytest.approx(1.00, abs=0.005)

    def test_closed_form_noncentrality(self):
        # delta = d (2a+1)^{3/2} / (sigma^2 (1+a)^3) on a design with X'X/n = I
        for sigma in (0.5, 2.0):
            table = contiguous_table([0.0, 0.5, 1.5], [5.0, 20.0], sigma=sigma, level=0.1)
            crit = chisq_quantile(1, 0.1)
            for a, row in table.items():
                for d, power in row.items():
                    delta = d * (2 * a + 1) ** 1.5 / (sigma**2 * (1 + a) ** 3)
                    assert power == pytest.approx(noncentral_chisq_sf(crit, 1, delta), rel=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            contiguous_table([0.0], [0.0], sigma=0.0, level=0.05)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            contiguous_table([-0.2], [5.0], sigma=1.0, level=0.05)


class TestCalibrationProperties:
    def test_level_approaches_nominal_with_n(self):
        # absolute deviation from the nominal level does not grow from
        # n = 50 to n = 200 beyond two binomial standard errors
        levels = {}
        for n in (50, 200):
            config = StudyConfig(
                design=DesignSpec(n=n),
                alphas=(0.0,),
                replications=400,
                seed=2024,
                hypotheses=(("beta1", 1, 1.0, None),),
            )
            levels[n] = run_study(config).cells[(0.0, n)]["level"]["beta1"]
        se2 = 2.0 * (0.05 * 0.95 / 400) ** 0.5
        assert abs(levels[200] - 0.05) <= abs(levels[50] - 0.05) + se2

    def test_power_increases_with_alternative_distance(self):
        powers = {}
        for alt in (0.8, 0.45):
            config = StudyConfig(
                design=DesignSpec(n=80),
                alphas=(0.3,),
                replications=200,
                seed=77,
                hypotheses=(("beta1", 1, 1.0, alt),),
            )
            cell = run_study(config).cells[(0.3, 80)]
            powers[alt] = cell["power"]["beta1"]
            assert 0.0 <= powers[alt] <= 1.0
        # the alternative 0.45 is further from the null of 1.0 than 0.8 is
        assert powers[0.45] > powers[0.8]

    def test_rmse_nonincreasing_in_alpha_under_contamination(self):
        config = StudyConfig(
            design=DesignSpec(n=200),
            alphas=(0.0, 0.3, 0.7, 1.0),
            replications=300,
            seed=11,
            contamination=ContaminationSpec(fraction=0.10),
            hypotheses=(("beta1", 1, 1.0, None),),
        )
        result = run_study(config)
        rmses = [result.cells[(a, 200)]["rmse"] for a in (0.0, 0.3, 0.7, 1.0)]
        assert all(r2 <= r1 + 0.01 for r1, r2 in zip(rmses, rmses[1:]))
