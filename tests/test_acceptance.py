"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test computes its quantities, prints a single "criterion N: PASS/FAIL"
line with the measured values, then asserts.  Criterion 4 runs the scaling
driver verbatim (a=2, q=2, --theta point:0, sigma=1/2, k=2..6, seed 0) and
holds its certified lower bounds v_k on ||M_Omega P_k|| to bounds fixed
before the run.  The point is not what is scanned: cover_set turns it into
the one cover interval Omega = [0, 2^(-k/2)], sampled with 9 to 33
directions for k=2..6, so the bounds are for Omega, not for theta = 0 alone:

  (a) v_k <= B_k, the Cauchy-Schwarz ceiling of tests/shell_ceiling.py, which
      ignores dispersion and grows like 2^(k/2); over-reporting (wrap-around,
      lattice-snapping inflation, a lost normalisation) breaks it;
  (b) the fitted growth exponent lies in [0.15, 1/2]: at least about the
      Carleson rate, and not above the exponent of B_k;
  (c) v_k / B_k is lower at k=6 than at k=2 by more than 1%, so dispersion is
      visible; a scan that lost the phase exp(i t Phi) grows like B_k and
      breaks it.  The margin lies above the 3e-6 by which the discrete B_k
      departs from exact 2^(k/2) growth and above the ~0.3% that lattice
      snapping can add to a witness.

The exponent 1/4 of the paper's upper bound C 2^(k/4) is asymptotic and is
not asserted on k <= 6.  An earlier window of [0.15, 0.35] could not be met by
any valid lower bound there: with k=2, 3 raised to B_k and k=5, 6 held at the
witnesses found, the fitted slope is still above 0.35.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dispmax.config import ExperimentConfig
from dispmax.directions import box_count, make_cantor, make_intervals, make_points
from dispmax.experiments import (
    run_convergence_experiment,
    run_scaling_experiment,
)
from dispmax.filters import psi0, psi_k
from dispmax.kernel import (
    decay_bound_scan,
    standard_phases,
    van_der_corput_check,
)
from dispmax.spectral import (
    DispersionProfile,
    SampledSignal,
    SpectralCoefficients,
    evolve,
    inverse_transform,
)
from shell_ceiling import shell_ceiling
from test_directions import report_beta

pytestmark = pytest.mark.acceptance

LAM_SCAN = [2.0**e for e in range(4, 11)]


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gaussian_evolution():
    t0 = time.monotonic()
    L, n, t = 20.0, 2048, 0.25
    x = -L + np.arange(n) * (2.0 * L / n)
    f = SampledSignal(L, np.exp(-(x**2) / 2.0).astype(complex))
    g = evolve(f, t, DispersionProfile.power(2.0))
    z = 1.0 - 2.0j * t
    exact = z**-0.5 * np.exp(-(x**2) / (2.0 * z))
    rel = float(np.max(np.abs(g.values - exact)) / np.max(np.abs(exact)))
    elapsed = time.monotonic() - t0
    report(1, rel < 1e-6 and elapsed < 1.0, f"rel err {rel:.3g}, {elapsed:.2f} s")


def test_criterion_2_propagator_invariants():
    profile = DispersionProfile.power(2.0)
    worst_unit = worst_group = 0.0
    half_width, n = 16.0, 256
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = SampledSignal(half_width, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        t1, t2 = rng.uniform(-0.5, 0.5, 2)
        g = evolve(f, t1, profile)
        worst_unit = max(worst_unit, abs(g.l2_norm() - f.l2_norm()) / f.l2_norm())
        lhs = evolve(g, t2, profile)
        rhs = evolve(f, t1 + t2, profile)
        scale = float(np.max(np.abs(rhs.values)))
        worst_group = max(worst_group, float(np.max(np.abs(lhs.values - rhs.values))) / scale)
    # the K-band identity covers |xi| <= 2^(K-1)
    xi = np.linspace(-32.0, 32.0, 10**4)
    total = psi0(xi) + sum(psi_k(k, xi) for k in range(1, 7))
    pu = float(np.max(np.abs(total - 1.0)))
    ok = worst_unit < 1e-10 and worst_group < 1e-10 and pu < 1e-12
    report(2, ok, f"unitarity {worst_unit:.2g}, group law {worst_group:.2g}, partition {pu:.2g}")


def test_criterion_3_dimension_machinery():
    t0 = time.monotonic()
    exact_ok = (
        box_count(make_points([0.0]), 0.1) == 1
        and box_count(make_intervals([(0.0, 1.0)]), 0.1) == 10
        and all(
            box_count(make_cantor(2, 1.0 / 3.0, 10), 3.0**-m) == 2**m for m in range(1, 10)
        )
    )
    beta = report_beta("cantor:2,0.3333333333333333,10", 3.0**-9, 3.0**-2)
    target = np.log(2.0) / np.log(3.0)
    elapsed = time.monotonic() - t0
    ok = exact_ok and abs(beta - target) < 0.05 and elapsed < 10.0
    report(3, ok, f"closed forms {'ok' if exact_ok else 'WRONG'}, "
                  f"cantor slope {beta:.4f} vs {target:.4f}, {elapsed:.1f} s")


def test_criterion_4_norm_scaling_window():
    t0 = time.monotonic()
    cfg = ExperimentConfig(a=2.0, theta="point:0", q=2.0, sigma=0.5, k_min=2, k_max=6, seed=0)
    table, fit = run_scaling_experiment(cfg)
    slope = fit[0]
    values = table.column("norm_estimate")
    ceilings = [shell_ceiling(k, cfg.q, cfg.half_width) for k in table.column("k")]
    ratios = [v / b for v, b in zip(values, ceilings)]
    under = all(r <= 1.0 + 1e-9 for r in ratios)
    dispersive = ratios[-1] < 0.99 * ratios[0]
    elapsed = time.monotonic() - t0
    ok = under and 0.15 <= slope <= 0.5 and dispersive and elapsed < 900.0
    report(4, ok, f"slope {slope:.4f} vs [0.15, 0.5], "
                  f"v_k/B_k {[round(r, 3) for r in ratios]}, "
                  f"B_k {[round(b, 4) for b in ceilings]}, {elapsed:.0f} s")


def test_criterion_5_kernel_decay():
    t0 = time.monotonic()
    details = []
    ok = True
    for a in (2.0, 1.2):
        profile = DispersionProfile.power(a)
        rep = decay_bound_scan(profile, 0.5, LAM_SCAN, samples_per_region=200, seed=0)
        sup = rep.max_decay_product()
        base = rep.max_decay_product(lam=LAM_SCAN[0])
        lo, hi = rep.v2_ratio_range
        ok = ok and sup <= 2.0 * base and 0.5 <= lo and hi <= 1.5
        details.append(f"a={a}: sup/base {sup / base:.3f}, v2 ratio [{lo:.3f}, {hi:.3f}]")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(5, ok, "; ".join(details) + f", {elapsed:.0f} s")


def test_criterion_6_lemma_checks():
    spreads = []
    for phase, k in standard_phases():
        ratios = [r[2] for r in van_der_corput_check(phase, LAM_SCAN, k)]
        spreads.append(max(ratios) / min(ratios))
    ok = all(s < 10.0 for s in spreads)
    report(6, ok, f"van der Corput spreads {[round(s, 2) for s in spreads]}")


def test_criterion_7_convergence():
    t0 = time.monotonic()
    theta_spec = "cantor:2,0.3333333333333333,8"
    beta = report_beta(theta_spec, 3.0**-7, 3.0**-2)
    s = (beta + 1.0) / 4.0 + 0.5
    cfg = ExperimentConfig(theta=theta_spec, s=s, seed=0)
    table = run_convergence_experiment(cfg)
    med = table.column("median_err")
    monotone = all(b <= a + 1e-15 for a, b in zip(med, med[1:]))
    halved = med[-1] < 0.5 * med[0]
    elapsed = time.monotonic() - t0
    ok = monotone and halved and elapsed < 300.0
    report(7, ok, f"beta {beta:.3f}, s {s:.3f}, median E(2^-1)={med[0]:.4f} -> "
                  f"E(2^-6)={med[-1]:.4f}, monotone={monotone}, {elapsed:.0f} s")


def test_criterion_8_determinism(tmp_path):
    runner = "from dispmax.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    outputs = {}
    for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        out = tmp_path / tag
        env = dict(os.environ, OMP_NUM_THREADS=threads)
        for args in (
            ["dim", "--theta", "cantor:2,0.3333333333333333,8", "--seed", "3"],
            ["maximal", "--theta", "interval:0,0.5", "--band", "2", "--seed", "3"],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", runner, *args, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs[tag] = {
            name: (out / name).read_bytes() for name in ("dimension.csv", "maximal.csv")
        }
    same_run = outputs["r1"] == outputs["r2"]
    same_threads = outputs["r1"] == outputs["r3"]
    report(8, same_run and same_threads,
           f"repeat run identical={same_run}, thread-count independent={same_threads}")
