"""Golden output digests: every subcommand's files, byte for byte.

Each subcommand that writes files runs in-process on one small config, and
the sha256 of every .csv and .gp it writes is compared with the digest
recorded from an earlier build of the package.  A refactor that claims to
leave outputs unchanged must keep every digest here.  A change that moves
bytes on purpose re-records them and says why.
"""

import hashlib

import pytest

from dispmax.cli import main

CONFIG = """\
n_grid = 128
half_width = 8
k_min = 1
k_max = 3
samples_per_region = 4
lambda_min_exp = 4
lambda_max_exp = 5
scale_max_exp = 2
scale_min_exp = 4
"""

CANTOR = "2,0.3333333333333333"

COMMANDS = {
    "evolve": ["evolve"],
    "dim": ["dim", "--theta", f"cantor:{CANTOR},6"],
    "cover": ["cover"],
    "maximal": ["maximal", "--theta", "interval:0,0.25", "--band", "2"],
    "maximal-points": ["maximal", "--theta", "points:-0.25,0.5"],
    "norm-scaling": ["norm-scaling"],
    "kernel-scan": ["kernel-scan"],
    "kernel-scan-a1.5": ["kernel-scan", "--a", "1.5"],
    "converge": ["converge", "--theta", f"cantor:{CANTOR},4"],
    # 203 directions on a 2048-point lattice: the windows, not the 64-row
    # FFT cap of the 2 MiB budget, bound the scan's blocks (3 to 64 slices)
    "maximal-interval": ["maximal", "--theta", "interval:-1,1"],
    "converge-interval": ["converge", "--theta", "interval:-1,1"],
    "converge-point": ["converge", "--theta", "point:0.9"],
    # plain mode with 128 directions on 64 components: the screen marks 207
    # of the 5055 x 65 (slice, x) pairs, and only their cells are certified
    "maximal-cantor": ["maximal", "--theta", f"cantor:{CANTOR},6"],
    # half_width 1.5 and 1.1 (CONFIG_EXTRA): x + t*theta leaves the periodic
    # box, so the scan's lattice windows wrap around it
    "maximal-wrap": ["maximal", "--theta", "interval:-1,1", "--band", "2"],
    "converge-wrap": ["converge", "--theta", f"cantor:{CANTOR},4"],
}

# config lines appended to CONFIG for some cases (a later key wins)
CONFIG_EXTRA = {
    "maximal-wrap": "half_width = 1.5\n",
    "converge-wrap": "half_width = 1.1\nn_grid = 32\n",
}

GOLDEN = {
    "evolve": {"evolved.csv": "30cce0be99e5aeb975d422ebf7207bb8d3870b6368f6b4b516ce788968ed0dbd"},
    "dim": {"dimension.csv": "afe98394932f25dab503d487c2ac36684c7b5f46d89d33f4dd2f6a6cdb9862c0"},
    "cover": {"cover.csv": "ae32bb1ca3963e5198d166da095acde24bb754f0ef2857f477a7b57a590f9bb6"},
    "maximal": {"maximal.csv": "01784bafdbe96b59b659cc19f6978ad1c7a3f7b709f5de09633e4b6bfb9895e1"},
    "maximal-points": {"maximal.csv": "b44590b46e28d38a4d0da88efc0c0427ecad77c42b8a3931dfaadcf13d9f80b7"},
    "norm-scaling": {
        "scaling.csv": "46487143f2b0333efc4bf2542e461da9eb22311e11031b87a47a59c5ebdc71b9",
        "scaling.gp": "ba9827330662a2674965fd0a7e22d1359287c0a7f1ff209687d42594d9604f45",
    },
    "kernel-scan": {
        "kernel_scan.csv": "12a22a264abc0d515457d6098dfc98b894a7150e107db3e29aaf3d3eae126164",
        "kernel_scan.gp": "8248b1b74f195a5bfab9b5fd987d4b98b172285663699cd83236c5dada10da93",
        "van_der_corput.csv": "4dd6a53919c597f1c5b60a5aeb42948dc15fe08741aca2dfe4327892a65184d5",
    },
    "kernel-scan-a1.5": {
        "kernel_scan.csv": "72f47fcbb232c7d3e2c5755d0ee5c0193a0feec3cccae1edd3dddc8c35ca6ef0",
        "kernel_scan.gp": "8248b1b74f195a5bfab9b5fd987d4b98b172285663699cd83236c5dada10da93",
        "van_der_corput.csv": "e98ac27048344b21e9f3dd2290622af4fd418766bed28522c225d8ddf6ce0f04",
    },
    "converge": {
        "converge.csv": "984d05fa1b0220dea48eac98e43f98cd398c42cb983eb39987fa159f0464889c",
        "converge.gp": "f220ae8d27e889190ff28602a2d38c96b0617383c6eaebb12403eec1d6f27d1e",
    },
    "maximal-interval": {"maximal.csv": "cfb4cedc4b86c10e6fa0929ad89c5199931f661883989d2c94e07d1c19353e14"},
    "converge-interval": {
        "converge.csv": "8184aec1eb6ee247a99ef426c16e8941d028098ce6cdf8575a9ba6f9e8c0f0c2",
        "converge.gp": "f220ae8d27e889190ff28602a2d38c96b0617383c6eaebb12403eec1d6f27d1e",
    },
    "maximal-wrap": {"maximal.csv": "c375b9d80816327b9a2e2e03a8d77407508452e6a00f9fec65320a38e4ab9ca1"},
    "converge-wrap": {
        "converge.csv": "b1ecc5a7ef9646c533c352c8f719850dcb0450c380d88232a78c4eb60f571471",
        "converge.gp": "f220ae8d27e889190ff28602a2d38c96b0617383c6eaebb12403eec1d6f27d1e",
    },
    "converge-point": {
        "converge.csv": "12fbf441f760b1c76148e4d431131e9ee00815e8b6a5f370b9bce47db21a1be7",
        "converge.gp": "f220ae8d27e889190ff28602a2d38c96b0617383c6eaebb12403eec1d6f27d1e",
    },
    "maximal-cantor": {"maximal.csv": "01d8e2b71614a93593cd9dcff291419c7d257eb7c1d6ac21bccbe0e0c7cdb825"},
}


def output_digests(out_dir) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".gp")
    }


@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_match_golden_digests(command, tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CONFIG + CONFIG_EXTRA.get(command, ""))
    out = tmp_path / "out"
    assert main(COMMANDS[command] + ["--config", str(cfg), "--out", str(out)]) == 0
    assert output_digests(out) == GOLDEN[command]
