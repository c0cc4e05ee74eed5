"""End-to-end acceptance checks.

Each test here is one gate the package must clear before a release: pinned
reference numbers, statistical recovery rates, reproducibility of the CLI
pipeline, and closed-form values for the dependence diagnostics.  Every
test finishes by printing a single ``criterion NN: PASS`` line (visible
with ``pytest -s``); the usual ``-v`` listing gives the same one-line
verdict per criterion.

Timing bounds are asserted with wall-clock measurements and are generous:
they exist to catch runaway iteration counts, not to benchmark hardware.
"""

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

from riversep.cli import main
from riversep.diagnostics import SpatialWeights, morans_i, mutual_information_discrete
from riversep.fa import fa_dof, fit_fa_ml_corr, profiled_discrepancy
from riversep.ica import IcaConfig, amari_index, fast_ica
from riversep.linalg import covariance_matrix
from riversep.pca import PcaModel, explained_variance, fit_pca, kaiser_retain, scores
from riversep.synth import generate_scenario

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"

# Reference spectrum for an 11-variable annual table: four component
# standard deviations above 1, seven below.  The leading four are pinned;
# the tail is spread uniformly so the total variance is exactly 11.
LEADING_STDEVS = (1.7091970, 1.4538088, 1.2109395, 1.0650152)


def reference_model() -> PcaModel:
    lead = np.asarray(LEADING_STDEVS)
    tail_var = (11.0 - float(np.sum(lead**2))) / 7.0
    stdevs = np.concatenate([lead, np.full(7, np.sqrt(tail_var))])
    return PcaModel(
        loadings=np.eye(11),
        stdevs=stdevs,
        scaled=True,
        mean=np.zeros(11),
        sd=np.ones(11),
    )


def test_criterion_01_kaiser_rule_retains_four_components():
    model = reference_model()
    assert np.all(model.stdevs[:4] > 1.0) and np.all(model.stdevs[4:] < 1.0)
    assert kaiser_retain(model) == 4
    print("criterion 01: PASS - Kaiser rule keeps exactly 4 of 11 components")


def test_criterion_02_leading_components_explain_69_percent():
    model = reference_model()
    share = explained_variance(model, 4)
    assert abs(share - 0.694) <= 0.001, share
    print(f"criterion 02: PASS - leading four explain {share:.4f} of variance")


def test_criterion_03_pca_invariants_hold_over_random_tables():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 11)) @ rng.normal(size=(11, 11))
        m = fit_pca(x, scale=True)
        # scaled fit: total variance equals the variable count
        assert abs(float(np.sum(m.stdevs**2)) - 11.0) <= 1e-8
        # loadings form an orthonormal basis
        gram = m.loadings.T @ m.loadings
        assert np.max(np.abs(gram - np.eye(11))) <= 1e-10
        # training scores are uncorrelated with variances stdevs**2
        cov = covariance_matrix(scores(m, x))
        assert np.max(np.abs(cov - np.diag(m.stdevs**2))) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s for 100 fits"
    print(f"criterion 03: PASS - invariants held on 100 random tables ({elapsed:.2f}s)")


def test_criterion_04_ica_recovers_nongaussian_mixtures():
    start = time.perf_counter()
    scenarios = (
        ["uniform", "uniform"],
        ["uniform", "uniform", "uniform"],
        ["laplace", "laplace"],
        ["laplace", "laplace", "laplace"],
    )
    for dists in scenarios:
        wins = 0
        for seed in range(10):
            sc = generate_scenario(
                dists,
                rows=5000,
                noise_sd=0.0,
                mixing_condition_max=10.0,
                seed=seed,
            )
            pca = fit_pca(sc.observed, scale=False)
            m = fast_ica(sc.observed, pca, IcaConfig(n_components=len(dists), seed=seed))
            if amari_index(m.unmixing, sc.mixing) < 0.05:
                wins += 1
        assert wins >= 9, f"{'+'.join(dists)}: only {wins}/10 runs below 0.05"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 04: PASS - >=9/10 recoveries in all 4 scenarios ({elapsed:.2f}s)")


def test_criterion_05_gaussian_mixtures_stay_unidentified():
    # Whitening must succeed to machine precision, yet the rotation that
    # remains is arbitrary for gaussian sources, so recovery should fail
    # often even though nothing is numerically wrong.
    start = time.perf_counter()
    failures = 0
    for seed in range(20):
        sc = generate_scenario(
            ["gaussian", "gaussian"],
            rows=5000,
            noise_sd=0.0,
            mixing_condition_max=10.0,
            seed=seed,
        )
        pca = fit_pca(sc.observed, scale=False)
        m = fast_ica(sc.observed, pca, IcaConfig(n_components=2, seed=seed))
        z = (sc.observed - sc.observed.mean(axis=0)) @ m.unmixing.T
        cov = (z.T @ z) / (z.shape[0] - 1)
        assert np.max(np.abs(cov - np.eye(2))) <= 1e-8
        if amari_index(m.unmixing, sc.mixing) > 0.2:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures >= 10, f"only {failures}/20 seeds failed to unmix"
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 05: PASS - {failures}/20 gaussian runs unidentified ({elapsed:.2f}s)")


def test_criterion_06_single_factor_recovered_exactly_from_compound_symmetry():
    r = np.full((3, 3), 0.64)
    np.fill_diagonal(r, 1.0)
    model = fit_fa_ml_corr(r, k=1, n_obs=1000)
    assert model.converged
    assert_allclose(model.loadings[:, 0], [0.8, 0.8, 0.8], atol=1e-3)
    assert_allclose(model.uniquenesses, [0.36, 0.36, 0.36], atol=1e-3)
    assert np.max(np.abs(r - model.fitted())) <= 1e-8
    print("criterion 06: PASS - loadings 0.8, uniquenesses 0.36, residual <= 1e-8")


def test_criterion_07_degrees_of_freedom_for_eleven_variables():
    got = tuple(fa_dof(11, k) for k in (1, 2, 3))
    assert got == (44, 34, 25), got
    print("criterion 07: PASS - dof(11, k) = 44, 34, 25 for k = 1, 2, 3")


def _two_factor_sample(n=1000, seed=2026):
    lam = np.array(
        [
            [0.8, 0.0],
            [0.7, 0.2],
            [0.6, 0.3],
            [0.0, 0.8],
            [0.2, 0.7],
            [0.3, 0.6],
        ]
    )
    psi = 1.0 - np.sum(lam**2, axis=1)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, 2))
    e = rng.normal(size=(n, 6)) * np.sqrt(psi)
    return f @ lam.T + e, lam @ lam.T + np.diag(psi)


def test_criterion_08_two_factor_fit_and_analytic_gradient():
    start = time.perf_counter()
    x, sigma_true = _two_factor_sample()
    r = np.corrcoef(x, rowvar=False)
    model = fit_fa_ml_corr(r, k=2, n_obs=x.shape[0])
    assert model.converged
    assert np.max(np.abs(model.fitted() - sigma_true)) < 0.08

    def central_difference(psi, h=1e-6):
        fd = np.empty_like(psi)
        for i in range(len(psi)):
            up, down = psi.copy(), psi.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                profiled_discrepancy(up, r, 2)[0]
                - profiled_discrepancy(down, r, 2)[0]
            ) / (2 * h)
        return fd

    # At interior non-stationary points the analytic gradient must agree
    # with central differences to a strict relative tolerance.
    rng = np.random.default_rng(7)
    probes = [
        model.uniquenesses * 1.15,
        model.uniquenesses * 0.9,
        rng.uniform(0.2, 0.8, size=6),
    ]
    for psi in probes:
        _, grad = profiled_discrepancy(psi, r, 2)
        fd = central_difference(psi)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12))
        assert rel < 1e-4, rel

    # At the optimum the gradient itself is ~0, so relative error is not
    # meaningful there; the honest statement is absolute agreement.
    _, grad_opt = profiled_discrepancy(model.uniquenesses, r, 2)
    fd_opt = central_difference(model.uniquenesses)
    assert np.max(np.abs(grad_opt)) < 1e-6
    assert np.max(np.abs(grad_opt - fd_opt)) < 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 08: PASS - fit within 0.08, gradient verified ({elapsed:.2f}s)")


def test_criterion_09_pipeline_is_reproducible_on_bundled_record(tmp_path):
    start = time.perf_counter()
    shutil.copy(FIXTURES / "station_fixture.rdb", tmp_path)
    shutil.copy(FIXTURES / "pipeline.json", tmp_path)
    config = tmp_path / "pipeline.json"

    assert main(["run", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    got = [(s["stage"], s["rows"], s["columns"]) for s in manifest["stages"]]
    assert got == [
        ("ingest", 204, 32),
        ("filter", 200, 30),
        ("annual_mean", 51, 30),
        ("drop_na_columns", 51, 17),
        ("drop_redundant", 51, 11),
        ("difference", 50, 11),
    ]

    def tree(directory):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
        }

    first = tree(tmp_path / "out")
    assert main(["run", str(config)]) == 0
    assert tree(tmp_path / "out") == first

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print(f"criterion 09: PASS - stage counts exact, rerun byte-identical ({elapsed:.2f}s)")


def test_criterion_10_dependence_diagnostics_match_closed_forms(tmp_path):
    start = time.perf_counter()

    # exactly independent discrete pair: every cell count identical
    x = np.repeat(np.arange(4.0), 4)
    y = np.tile(np.arange(4.0), 4)
    assert abs(mutual_information_discrete(x, y, bins=4)) <= 1e-12

    # y = x over 16 evenly spaced points, 4 bins: 2 bits exactly
    t = np.arange(16.0)
    assert abs(mutual_information_discrete(t, t, bins=4) - 2.0) <= 1e-12

    # alternating field on an even ring is the most negatively
    # autocorrelated pattern possible: statistic exactly -1
    n = 20
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i - 1) % n] = ring[i, (i + 1) % n] = 1.0
    w = SpatialWeights(ring)
    checker = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    assert abs(morans_i(checker, w) - (-1.0)) <= 1e-10

    # permutation null: mean of the statistic is -1/(n-1)
    rng = np.random.default_rng(11)
    field = rng.normal(size=n)
    draws = np.array(
        [morans_i(rng.permutation(field), w) for _ in range(1000)]
    )
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - (-1.0 / (n - 1))) <= 3 * se

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 10: PASS - MI and spatial statistics exact ({elapsed:.2f}s)")


def test_criterion_11_readme_names_figures_not_reproduced():
    text = README.read_text()
    assert "does not reproduce" in text
    # the documented out-of-scope figures: a variance share quoted as 64%,
    # variable loadings, component time courses, and test p-values
    section = text[text.index("does not reproduce"):]
    for token in ("64%", "loadings", "time courses", "p-values"):
        assert token in section, f"README missing mention of {token!r}"
    print("criterion 11: PASS - README documents the untargeted figures")
