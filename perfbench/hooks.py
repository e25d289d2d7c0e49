"""The ``CampaignConfig.validate`` hook the benchmark's campaigns run with.

Campaign workers are separate processes, so they take their own speed
samples (see ``calibrate.py``) and, in a traced iteration, record their own
spans (see ``spans.py``).  The hook sets both up on its first call in a
worker, then validates exactly as the default hook does; each worker writes
what it recorded when the supervisor stops it.
"""

from __future__ import annotations

import atexit
import json
import os

import calibrate
import spans

_validate = None


def _dump(samples: dict, recorder) -> None:
    directory = os.environ[calibrate.SAMPLE_DIR_ENV]
    with open(os.path.join(directory, f"samples-{os.getpid()}.json"), "w") as handle:
        json.dump(samples, handle)
    if recorder is not None:
        recorder.dump(os.path.join(directory, f"spans-{os.getpid()}.json"))


def worker_validate(module, name, options, cache):
    """Calibrated (and, when tracing, traced) ``default_validate``."""
    global _validate
    if _validate is None:
        from repro.tv import parallel

        recorder = None
        if os.environ.get(spans.TRACE_ENV):
            recorder = spans.Recorder()
            spans.install(recorder)
        calibrator = calibrate.Calibrator()
        if recorder is not None:
            for method in ("sample_if_due", "sample_inside"):
                setattr(calibrator, method, recorder.wrap("calibrate", getattr(calibrator, method)))
        calibrator.watch_solver()
        samples: dict[str, list] = {}
        _validate = calibrator.wrap(parallel.default_validate, samples)
        atexit.register(_dump, samples, recorder)
    return _validate(module, name, options, cache)
