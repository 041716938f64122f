"""The benchmark's workloads: each is a list of dispmax CLI operations.

An operation is one call of ``dispmax.cli.main`` with the argv built here
plus ``--out``.  Every argv is a pure function of the benchmark seed, so the
same seed gives the same inputs.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose output digests are stored in digests.json.
COMMITTED_SEED = 0

NORM_SCALING_SEEDS = 7

CANTOR = "cantor:2,0.3333333333333333,{depth}"

# (leg, dispersion exponent a, largest lambda exponent) of kernel-scan.
KERNEL_SCAN_LEGS = (("a2", "2", 9), ("a1_2", "1.2", 10))
KERNEL_LEGS = tuple(leg for leg, _, _ in KERNEL_SCAN_LEGS)


@dataclass(frozen=True)
class Op:
    label: str  # stable within a workload; keys digests.json
    argv: tuple  # CLI arguments, without --config and --out
    config: str = ""  # text of the --config file; none if empty
    leg: str = ""  # kernel-scan leg the per-layer kernel metrics are filed under


def _norm_scaling(seed: int, smoke: bool) -> list[Op]:
    # Seven program seeds per run: the cost depends on the program seed
    # (alternating-maximization rounds, and the band limit of each iterate
    # sets the scan's lattice size), 17% from seed to seed at k=2..4, and
    # the sum over seven varies about a third as much.
    k_min, k_max = (1, 3) if smoke else (2, 4)
    ops = []
    for i in range(NORM_SCALING_SEEDS):
        argv = ("norm-scaling", "--a", "2", "--q", "2", "--theta", "point:0",
                "--sigma", "0.5", "--k-min", str(k_min), "--k-max", str(k_max),
                "--seed", str(NORM_SCALING_SEEDS * seed + i))
        ops.append(Op(f"seed{i}", argv))
    return ops


def _converge_cantor(seed: int, smoke: bool) -> list[Op]:
    depth = 3 if smoke else 8
    config = "scale_max_exp = 3\n" if smoke else "scale_max_exp = 2\n"
    ops = []
    for s in ("0.6", "0.9", "1.2"):
        argv = ("converge", "--theta", CANTOR.format(depth=depth), "--s", s,
                "--seed", str(seed))
        ops.append(Op(f"s{s}", argv, config))
    return ops


def _kernel_scan(seed: int, smoke: bool) -> list[Op]:
    per_region = 4 if smoke else 50
    ops = []
    for leg, a, lam_max_exp in KERNEL_SCAN_LEGS:
        lam_max_exp = 5 if smoke else lam_max_exp
        config = (f"lambda_min_exp = 4\nlambda_max_exp = {lam_max_exp}\n"
                  f"samples_per_region = {per_region}\n")
        argv = ("kernel-scan", "--a", a, "--sigma", "0.5", "--seed", str(seed))
        ops.append(Op(leg, argv, config, leg=leg))
    return ops


WORKLOADS = {
    "norm-scaling": _norm_scaling,
    "converge-cantor": _converge_cantor,
    "kernel-scan": _kernel_scan,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    return WORKLOADS[workload](seed, smoke)
