"""Run the ``corrsounder`` command with its layer functions traced.

Usage: trace_child.py SPANS_JSON CLI_ARG...

Each function in ``LAYERS`` is replaced, in every ``corrsounder`` module that
holds it (``sweep``, ``cli`` and ``scenario_io`` import by name), by a
wrapper that records a span: name, start, end, the index of the enclosing
span, and a few computed extras.  Spans stay in memory and are written to
SPANS_JSON when the command ends.  ``tracemalloc`` runs here only, and only
inside the functions in ``PEAK_ALLOC``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

#: Traced public functions per package module (the benchmark's layers).
LAYERS = {
    "pn": ("generate_msequence",),
    "waveform": ("upsample_chips",),
    "channel": ("synthesize_channel", "apply_channel"),
    "correlator": ("correlate_fast", "write_cir_csv"),
    "pdp": (
        "system_pulse_energy_bins", "pdp_from_iq", "threshold_pdp",
        "average_pdps", "write_pdp_csv",
    ),
    "sweep": ("run_sweep",),
    "scenario_io": ("load_scenario", "run_campaign"),
    "cli": ("main",),
}


def _samples_nbytes(args, kwargs, result) -> dict:
    return {"bytes_out": int(result.samples.nbytes)}


def _threshold_outcome(args, kwargs, result) -> dict:
    # the rule is max(peak - 20 dB, floor + 5 dB); "floor binding" means the
    # second term set the threshold
    return {
        "signal_present": int(result.total_power_dbm is not None),
        "floor_binding": int(result.noise_floor_dbm + 5.0 > result.peak_power_dbm - 20.0),
    }


#: Extras computed from a call's arguments and result (sizes are computed
#: from array sizes; PDP CSV bytes are the written file's size).
EXTRAS = {
    "correlator.correlate_fast": lambda a, k, r: {"samples_in": len(a[0])},
    "channel.apply_channel": _samples_nbytes,
    "waveform.upsample_chips": _samples_nbytes,
    "pdp.threshold_pdp": _threshold_outcome,
    "pdp.write_pdp_csv": lambda a, k, r: {"bytes_out": os.path.getsize(a[1])},
}


#: Functions whose allocation peak is measured.  ``tracemalloc`` runs only
#: inside them, so the Python-heavy layers keep their untraced speed.
PEAK_ALLOC = {"correlator.correlate_fast", "channel.apply_channel"}


class Tracer:
    """Span recorder; a span is [name, start, end, parent index, extras]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        extras = EXTRAS.get(name)
        measure_peak = name in PEAK_ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            # were one measured function to call another, the outer peak
            # would cover both
            own_peak = measure_peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if own_peak:
                    span[4]["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if extras is not None:
                span[4].update(extras(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every layer function wherever a package module holds it."""
        for module_name in LAYERS:
            importlib.import_module(f"corrsounder.{module_name}")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "corrsounder"]
        for module_name, names in LAYERS.items():
            home = sys.modules[f"corrsounder.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["corrsounder.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
