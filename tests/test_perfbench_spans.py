"""The names perfbench's traced run wraps still exist with the arguments it reads.

perfbench/spans.py records its layer spans by replacing functions in the
dispmax modules and reading their arguments by name.  A renamed function or
argument would silently drop a span or break the traced run, so this test
installs the tracer as the benchmark does and runs one small scan through it.
"""

import contextlib
import importlib
import io
from pathlib import Path

import numpy as np

from dispmax import kernel, maximal
from dispmax.spectral import DispersionProfile, make_sobolev_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_layer_it_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    psi_sq = kernel._psi_sq
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            spans.install_layers(tracer)
        missing = [line for line in err.getvalue().splitlines() if "not found" in line]
        # build_filter_bank was deleted from dispmax; perfbench still asks for it
        assert len(missing) == 4
        assert all(".build_filter_bank not found" in line for line in missing)
        assert kernel._psi_sq is not psi_sq  # spanned on its first call

        profile = DispersionProfile.power(2.0)
        # (x, t, theta) = (0.3, 0.2, 0.1) and (-0.4, -0.1, 0.05)
        shift, dt = (0.3 + 0.4) + 0.2 * 0.1 + 0.1 * 0.05, 0.2 + 0.1
        kernel.kernel_value(shift, dt, 16.0, profile, 3)

        f = make_sobolev_data(1.0, 0, half_width=4.0, n=64)
        t_grid, theta_values = np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.1])
        res = maximal._scan(f, theta_values, t_grid, profile, 9)
    finally:
        tracer.uninstall()
    assert kernel._psi_sq is psi_sq
    (value,) = [s for s in tracer.spans if s["name"] == "kernel.kernel_value"]
    (refine,) = [s for s in tracer.spans if s["name"] == "kernel._refine_panels"]
    assert value["density"] == 3
    assert refine["parent"] == value["id"] and refine["panels"] == 2 * kernel._BASE_SPLIT
    (span,) = [s for s in tracer.spans if s["name"] == "maximal._scan"]
    assert span["cells"] == 5 * 2 * 9
    assert span["lattice_values"] == 5 * round(2.0 * 4.0 / res.lattice_step)
    assert not hasattr(maximal._scan, "__wrapped__")
