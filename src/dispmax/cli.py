"""Command-line surface: experiment drivers plus small utility commands.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (every
other package error: quadrature budget, aliasing, nonconforming profile,
failed lemma hypothesis, region sampling).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings

import numpy as np

from .config import (
    _FIELD_TYPES,
    ExperimentConfig,
    ResultTable,
    _settings,
    emit_plot_script,
    provenance_block,
    write_csv,
)
from .directions import cover_set
from .errors import ConfigError, DispmaxError
from .experiments import (
    run_convergence_experiment,
    run_dimension_report,
    run_kernel_scan,
    run_scaling_experiment,
)
from .filters import project, psi0, psi_k
from .kernel import standard_phases, van_der_corput_check
from .maximal import maximal_function
from .spectral import (
    check_dispersion_conditions,
    evolve,
    forward_transform,
    inverse_transform,
    make_sobolev_data,
    signal_from_csv,
    sobolev_norm,
)


def _build_config(args) -> ExperimentConfig:
    """One config: the defaults, then the --config file's settings (else
    $DISPMAX_OUT as `out`), then the flags."""
    if args.config:
        try:
            with open(args.config) as fh:
                settings = _settings(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    else:
        env_out = os.environ.get("DISPMAX_OUT")
        settings = {"out": env_out} if env_out else {}
    overrides = {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}
    return ExperimentConfig(**{**settings, **overrides})


def _write_table(cfg: ExperimentConfig, table: ResultTable, stem: str, plot: bool = False) -> None:
    """Write <stem>.csv to the output directory, and its gnuplot script
    <stem>.gp when plot is set; prints one "wrote" line per file."""
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{stem}.csv")
    write_csv(table, path)
    print(f"wrote {path}")
    if plot:
        script = os.path.join(cfg.out, f"{stem}.gp")
        emit_plot_script(table, script, f"{stem}.csv")
        print(f"wrote {script}")


def _load_signal(cfg: ExperimentConfig, args):
    """(signal, sha256 of its file): the --input signal CSV, or seeded H^s data
    on the configured grid and None."""
    if args.input:
        try:
            with open(args.input, "rb") as fh:
                data = fh.read()
            return signal_from_csv(data.decode()), hashlib.sha256(data).hexdigest()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --input signal: {exc}") from exc
    return make_sobolev_data(cfg.s, cfg.seed, half_width=cfg.half_width, n=cfg.n_grid), None


def _signal_provenance(cfg: ExperimentConfig, sha256, **extra) -> dict:
    """provenance_block, naming an --input file by its sha256 in place of the
    seed its data did not use."""
    block = provenance_block(cfg, **extra)
    if sha256 is not None:
        del block["seed"]
        block["input_sha256"] = sha256
    return block


def _cmd_check(cfg: ExperimentConfig, args) -> int:
    c1, c2 = check_dispersion_conditions(cfg.profile)
    print(f"dispersion conditions: C1est={c1:.6g} C2est={c2:.6g}")
    f = make_sobolev_data(1.0, cfg.seed, half_width=8.0, n=256)
    rt = inverse_transform(forward_transform(f))
    rt_err = float(np.max(np.abs(rt.values - f.values)) / np.max(np.abs(f.values)))
    print(f"transform round trip: max rel err {rt_err:.3g}")
    g = evolve(f, 0.5, cfg.profile)
    unit_err = abs(g.l2_norm() - f.l2_norm()) / f.l2_norm()
    print(f"propagator unitarity: rel err {unit_err:.3g}")
    xi = np.linspace(-16.0, 16.0, 4001)
    total = psi0(xi) + sum(psi_k(k, xi) for k in range(1, 6))
    pu_err = float(np.max(np.abs(total - 1.0)))
    print(f"partition of unity: max deviation {pu_err:.3g}")
    ok = rt_err < 1e-12 and unit_err < 1e-10 and pu_err < 1e-12
    print("check:", "ok" if ok else "FAILED")
    return 0 if ok else 3


def _cmd_evolve(cfg: ExperimentConfig, args) -> int:
    f, sha256 = _load_signal(cfg, args)
    g = evolve(f, args.t, cfg.profile)
    norm = sobolev_norm(f, cfg.s)
    table = ResultTable(
        names=("x", "re", "im"),
        rows=zip(g.grid, g.values.real, g.values.imag),
        provenance=_signal_provenance(cfg, sha256, experiment="evolve", t=args.t, hs_norm_in=norm),
    )
    print(f"H^{cfg.s:g} norm in = {norm:.6g}")
    _write_table(cfg, table, "evolved")
    return 0


def _cmd_dim(cfg: ExperimentConfig, args) -> int:
    table = run_dimension_report(cfg)
    print(f"beta={table.provenance['beta']:.6g} residual={table.provenance['fit_residual']:.3g}")
    _write_table(cfg, table, "dimension")
    return 0


def _cmd_cover(cfg: ExperimentConfig, args) -> int:
    result = cover_set(cfg.directions, args.lam, cfg.resolved_sigma())
    table = ResultTable(
        names=("left", "right"),
        rows=result.intervals,
        provenance=provenance_block(cfg, experiment="cover", width=result.width,
                                    count=result.count, lam=float(args.lam)),
    )
    print(f"N={result.count} width={result.width:.6g}")
    _write_table(cfg, table, "cover")
    return 0


def _cmd_maximal(cfg: ExperimentConfig, args) -> int:
    f, sha256 = _load_signal(cfg, args)
    if args.band is not None:
        f = project(f, args.band)
    band = forward_transform(f).band_limit()
    res = maximal_function(f, cfg.directions, cfg.profile, x_count=cfg.x_count)
    table = ResultTable(
        names=("x", "maximal_value"),
        rows=zip(res.x, res.values),
        provenance=_signal_provenance(cfg, sha256, experiment="maximal", band=band),
    )
    _write_table(cfg, table, "maximal")
    return 0


def _cmd_norm_scaling(cfg: ExperimentConfig, args) -> int:
    table, fit = run_scaling_experiment(cfg)
    print(f"fitted slope={fit[0]:.4g} intercept={fit[1]:.4g} residual={fit[2]:.3g}")
    _write_table(cfg, table, "scaling", plot=True)
    return 0


def _cmd_kernel_scan(cfg: ExperimentConfig, args) -> int:
    table, report = run_kernel_scan(cfg)
    lo, hi = report.v2_ratio_range
    print(f"max decay product={report.max_decay_product():.6g} v2 ratio in [{lo:.3g}, {hi:.3g}]")
    _write_table(cfg, table, "kernel_scan", plot=True)
    vdc_rows = [(phase.name, k, *row)
                for phase, k in standard_phases()
                for row in van_der_corput_check(phase, cfg.lambdas(), k)]
    vdc_table = ResultTable(names=("phase", "order", "lambda", "abs_integral", "normalized_ratio"),
                            rows=vdc_rows,
                            provenance=provenance_block(cfg, experiment="van-der-corput"))
    _write_table(cfg, vdc_table, "van_der_corput")
    return 0


def _cmd_converge(cfg: ExperimentConfig, args) -> int:
    table = run_convergence_experiment(cfg)
    med, r = table.column("median_err"), table.column("r")
    print(f"median err: {med[0]:.6g} at r={r[0]:g} -> {med[-1]:.6g} at r={r[-1]:g}")
    _write_table(cfg, table, "converge", plot=True)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "evolve": _cmd_evolve,
    "dim": _cmd_dim,
    "cover": _cmd_cover,
    "maximal": _cmd_maximal,
    "norm-scaling": _cmd_norm_scaling,
    "kernel-scan": _cmd_kernel_scan,
    "converge": _cmd_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispmax",
        description="Numerical lab for directional maximal estimates of dispersive propagators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The options every subcommand takes.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory (default: $DISPMAX_OUT or .)")
    common.add_argument("--a", type=float, help="dispersion exponent, Phi = |xi|^a")
    common.add_argument("--q", type=float)
    common.add_argument("--sigma", type=float)
    common.add_argument("--theta", help="direction set: point:0 | points:.. | interval:a,b | cantor:m,r,d")
    common.add_argument("--k-min", dest="k_min", type=int)
    common.add_argument("--k-max", dest="k_max", type=int)
    common.add_argument("--s", type=float, help="Sobolev order for generated data")

    def add(name, summary):
        return sub.add_parser(name, help=summary, parents=[common])

    add("check", "condition and invariant self-test")
    p = add("evolve", "apply the propagator to a signal")
    p.add_argument("--t", type=float, default=0.25)
    p.add_argument("--input", help="signal CSV (x,re,im); generated data if omitted")
    add("dim", "box-counting dimension report")
    p = add("cover", "lambda^-sigma interval cover of theta")
    p.add_argument("--lam", type=float, default=16.0)
    p = add("maximal", "directional maximal function on the grid")
    p.add_argument("--input", help="signal CSV (x,re,im); generated data if omitted")
    p.add_argument("--band", type=int, help="apply the dyadic projection P_band first")
    add("norm-scaling", "operator-norm growth experiment")
    add("kernel-scan", "kernel decay and lemma-ratio scan")
    add("converge", "pointwise-convergence error scan")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        with warnings.catch_warnings():  # a library warning is one stderr line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DispmaxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
