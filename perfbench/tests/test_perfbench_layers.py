import warnings
from pathlib import Path

import pytest

import layers
from spans import Tracer

SRC = Path(__file__).resolve().parents[2] / "src"
CALIBRATION_PY = SRC / "scansim" / "calibration.py"
needs_source = pytest.mark.skipif(not CALIBRATION_PY.is_file(),
                                  reason="no scansim source beside the benchmark")


def no_improve():
    warnings.warn(
        "cluster 'c1': numerical refinement did not improve on its initial "
        "transform; returning the initial one",
        stacklevel=2,
    )


def inverse_skipped():
    warnings.warn("inverse trajectory pass skipped: the run did not end inside a "
                  "globally referenced cluster's coverage", stacklevel=2)


def test_warnings_raised_through_a_tracer_wrapper_are_counted():
    # With stacklevel=2 each record names the wrapper's file, not the
    # function that called warnings.warn.
    tracer = Tracer()
    table = {"no_improve": no_improve, "inverse_skipped": inverse_skipped}
    for name, fn in list(table.items()):
        tracer.patch(table, name, tracer.timed(f"calibration.{name}", fn))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table["no_improve"]()
        table["no_improve"]()
        table["inverse_skipped"]()
        warnings.warn("something else", stacklevel=1)
    tracer.restore()
    assert all(Path(w.filename).name != "calibration.py" for w in caught)
    assert layers.count_warnings(caught) == {
        "calibration.no_improve": 2,
        "orchestrator.inverse_skipped": 1,
    }


@needs_source
def test_the_counted_texts_are_those_calibration_py_warns_with():
    # Join the adjacent string literals the messages are split into.
    source = " ".join(CALIBRATION_PY.read_text().split()).replace('" "', "")
    assert layers.NO_IMPROVE in source
    assert layers.INVERSE_SKIPPED in source


@needs_source
def test_an_instrumented_run_that_skips_the_inverse_pass_counts_one_skip(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import scansim.orchestrator as orchestrator
    from scansim.scenario import default_scenario
    from scansim.simulator import simulate

    config = default_scenario()
    frames = simulate(config)
    global_ids = {u.id for u in config.global_clusters}
    # End the run at the last frame outside every globally referenced cluster.
    end = max(i for i, f in enumerate(frames)
              if not global_ids & {o.ulps_id for o in f.observations})
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            orchestrator.run_scan(frames[:end + 1], config, "ekf", "analytical", inverse=True)
    finally:
        tracer.restore()
    assert layers.count_warnings(caught)["orchestrator.inverse_skipped"] == 1
