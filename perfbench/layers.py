"""Per-layer accounting, and the host-speed probe every timed span uses.

`Clock` times the benchmark's own calls into each layer (load, folds,
model IO, scoring, metrics); it is on in every run. `traced_training` wraps
the trainer's step machinery from outside the program for the traced run
only: the tape context (forward and loss), `Tape.backward` with its op
count, the Adam step, the per-epoch monitor and the validation-split fold
plans. With tracing off nothing inside the program is wrapped.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from omtl import trainer

# Every span is measured in CPU seconds of this process. The process runs
# one thread (BLAS is pinned to one), so on an idle host this equals wall
# time; on a shared virtual machine it leaves out the time the host takes
# the vCPU away (steal).
cpu_seconds = time.process_time

# CPU time still moves with the host: on a shared virtual machine the same
# computation takes up to three times as long when other guests load the
# physical cores, in phases that last from seconds to minutes. So before
# each timed span the benchmark runs a fixed probe that shares no code
# with the program, and rescales a round's CPU seconds by
# PROBE_REFERENCE_S / (the median of the round's probes): their cost at
# the host speed at which the probe takes PROBE_REFERENCE_S. The round's
# median, not each span's own probe, because within a steady phase one
# 8 ms probe varies more than the spans it would rescale. The constant only
# sets the scale, the same in every run and version: it is the probe's
# 5th-percentile time over 3,000 back-to-back probes, measured once on an
# Intel Xeon 2-vCPU virtual machine (Python 3.11, numpy 2.4), where the
# probe's median per run later read between 5.7 and 16.7 ms.
PROBE_REFERENCE_S = 0.0079


def _probe_inputs():
    rng = np.random.default_rng(20090218)
    left, right = rng.standard_normal((64, 41)), rng.standard_normal((41, 32))
    lines = [json.dumps({"id": f"r{i}", "features": rng.standard_normal(41).tolist(),
                         "concepts": ["n1", "n1_2"], "labels": {"mortality": i % 2}})
             for i in range(320)]
    return left, right, lines


_PROBE_LEFT, _PROBE_RIGHT, _PROBE_LINES = _probe_inputs()


def host_probe() -> float:
    """CPU seconds of a fixed computation of the two kinds the program's
    time goes to: small matrix products with Python overhead around each,
    and parsing JSON records into arrays."""
    started = cpu_seconds()
    for _ in range(500):
        np.maximum(_PROBE_LEFT @ _PROBE_RIGHT, 0.0).sum()
    for line in _PROBE_LINES:
        np.asarray(json.loads(line)["features"])
    return cpu_seconds() - started


class Clock:
    """Seconds and counts accumulated under dotted layer names.

    `totals` holds CPU seconds and counts; `probes` the times of the host
    probes run since `clear`, one before each span not nested in another.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.probes: list[float] = []
        self.variant: str | None = None
        self._depth = 0

    def clear(self) -> None:
        self.totals.clear()
        self.probes.clear()

    def reference_scale(self) -> float:
        """Factor from CPU seconds to reference seconds since `clear`."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    @contextlib.contextmanager
    def span(self, name: str):
        if self._depth == 0:
            self.probes.append(host_probe())
        self._depth += 1
        started = cpu_seconds()
        try:
            yield
        finally:
            self._depth -= 1
            self.totals[name] += cpu_seconds() - started

    def add(self, name: str, value: float) -> None:
        """Add to name, suffixed by the variant being trained, if any."""
        if self.variant is not None:
            self.totals[f"{name}.{self.variant}"] += value

    @contextlib.contextmanager
    def training(self, variant: str):
        self.variant = variant
        try:
            yield
        finally:
            self.variant = None


@contextlib.contextmanager
def traced_training(clock: Clock):
    """Swap the trainer's Tape, Adam, monitor and fold planner for timed
    subclasses and wrappers; restore the originals on exit."""
    originals = (trainer.Tape, trainer._FlatAdam, trainer.evaluate_loss,
                 trainer.make_folds)
    base_tape, base_adam, base_monitor, base_folds = originals

    class TracedTape(base_tape):
        def __enter__(self):
            self._entered = cpu_seconds()
            return super().__enter__()

        def __exit__(self, *exc):
            super().__exit__(*exc)
            clock.add("trainer.forward_loss_s", cpu_seconds() - self._entered)

        def backward(self, loss):
            clock.add("trainer.steps", 1)
            clock.add("tensor.ops", len(self._ops))
            started = cpu_seconds()
            super().backward(loss)
            clock.add("tensor.backward_s", cpu_seconds() - started)

    class TracedAdam(base_adam):
        def step(self, tape):
            started = cpu_seconds()
            super().step(tape)
            clock.add("trainer.optimizer_s", cpu_seconds() - started)

    def monitor(*args, **kwargs):
        started = cpu_seconds()
        result = base_monitor(*args, **kwargs)
        clock.add("trainer.monitor_s", cpu_seconds() - started)
        return result

    def folds(*args, **kwargs):
        with clock.span("datastore.folds"):
            return base_folds(*args, **kwargs)

    (trainer.Tape, trainer._FlatAdam, trainer.evaluate_loss,
     trainer.make_folds) = TracedTape, TracedAdam, monitor, folds
    try:
        yield
    finally:
        (trainer.Tape, trainer._FlatAdam, trainer.evaluate_loss,
         trainer.make_folds) = originals
