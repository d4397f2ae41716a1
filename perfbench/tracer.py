"""Outside-in span tracing of kappasim's public functions.

The tracer replaces names in the ``kappasim.cli`` and
``kappasim.dispersion`` namespaces with timing wrappers, so a call such as
``variation -> run_variation -> run_experiment`` nests as parent and
child. Nothing inside the package is edited. Spans live in memory as
``[name, start, end, parent, run_id, cpu_start, cpu_end]`` lists (times in
seconds from ``perf_counter`` and ``process_time``; ``parent`` indexes the
span list, -1 for a root) and are written out once the run ends.

A site whose name no longer exists is recorded as absent rather than
failing, so the benchmark keeps running across planned API removals.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# (namespace, attribute, span name). The span name is the layer and
# function the metric reports under.
SITES = (
    ("kappasim.cli", "generate_synthetic", "corpus.generate_synthetic"),
    ("kappasim.cli", "write_matrix", "corpus.write_matrix"),
    ("kappasim.cli", "read_matrix", "corpus.read_matrix"),
    ("kappasim.cli", "fleiss_kappa", "agreement.fleiss_kappa"),
    ("kappasim.dispersion", "fleiss_kappa", "agreement.fleiss_kappa"),
    ("kappasim.cli", "run_experiment", "mc.run_experiment"),
    ("kappasim.dispersion", "run_experiment", "mc.run_experiment"),
    ("kappasim.dispersion", "kappa_table", "mc.kappa_table"),
    ("kappasim.cli", "summarize", "mc.summarize"),
    ("kappasim.cli", "summarize_table", "mc.summarize_table"),
    ("kappasim.cli", "write_runs", "mc.write_runs"),
    ("kappasim.cli", "read_runs", "mc.read_runs"),
    ("kappasim.cli", "write_stats", "mc.write_stats"),
    ("kappasim.cli", "read_stats", "mc.read_stats"),
    ("kappasim.cli", "extract_minima", "minfit.extract_minima"),
    ("kappasim.cli", "fit", "minfit.fit"),
    ("kappasim.cli", "run_variation", "dispersion.run_variation"),
    ("kappasim.cli", "write_variation", "dispersion.write_variation"),
    ("kappasim.cli", "write_intervals", "dispersion.write_intervals"),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self.absent: list[str] = []
        installed: set[str] = set()
        # The first run_experiment result's team and kappa-hat, for the
        # prefix probe and the full-precision oracle check.
        self.team: tuple[str, ...] | None = None
        self.kappa_hat: float | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr, span_name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            on_result = self._capture if span_name == "mc.run_experiment" else None
            wrapper = self._wrap(span_name, original, on_result)
            self._patches.append((module, attr, original, wrapper))
            installed.add(span_name)
        # Span names none of whose sites exist any more.
        self.absent_spans = sorted({name for _, _, name in SITES} - installed)

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.run_id, time.process_time(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            record[6] = time.process_time()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _capture(self, run_set: object) -> None:
        if self.team is None:
            team = getattr(run_set, "team", None)
            self.team = tuple(team) if team is not None else None
            kappa_hat = getattr(run_set, "kappa_hat", None)
            self.kappa_hat = float(kappa_hat) if kappa_hat is not None else None
