"""Spans around tatrack's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper wherever a
tatrack module holds it: a function imported by name into another module
(``multilaterate`` into ``pipeline`` and ``tracker``, ``encode`` into
``pipeline``) is looked up there, not in the module that defines it.
Methods are replaced on their class. ``uninstall`` puts the originals back.

Each call keeps one span (name, start, end, parent index) in memory; the
spans are written out once the traced run is over. A span's self time is
its duration minus the time its child spans cover.
"""

import functools
import sys
import time
from dataclasses import dataclass

#: (span name, module, attribute path) of every traced function.
TARGETS = (
    ("stage.simulate", "tatrack.pipeline", "stage_simulate"),
    ("stage.probe", "tatrack.pipeline", "stage_probe"),
    ("stage.extract", "tatrack.pipeline", "stage_extract"),
    ("stage.localize", "tatrack.pipeline", "stage_localize"),
    ("stage.track", "tatrack.pipeline", "stage_track"),
    ("stage.stats", "tatrack.pipeline", "stage_stats"),
    ("stage.write", "tatrack.pipeline", "write_artifacts"),
    ("sim.run", "tatrack.sim", "run"),
    ("probe.ingest", "tatrack.probe", "ConnectionTable.ingest"),
    ("extractor.step", "tatrack.extractor", "step"),
    ("geometry.solve", "tatrack.geometry", "multilaterate"),
    ("geometry.solve", "tatrack.geometry", "multilaterate_with_offset"),
    ("geometry.intersect", "tatrack.geometry", "intersect"),
    ("messages.encode", "tatrack.messages", "encode"),
    ("tracker.ingest", "tatrack.tracker", "TrackDb.ingest"),
    ("tracker.stats", "tatrack.tracker", "connection_stats"),
    ("tracker.build_trace", "tatrack.tracker", "TrackDb.build_trace"),
    ("fingerprint.classify", "tatrack.fingerprint", "classify"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0    # summed span durations
    self_s: float = 0.0     # the same less the time of child spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []   # (name, start_s, end_s, parent index or -1)
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def replace(self, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` in every tatrack module."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("tatrack") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self, targets=TARGETS) -> None:
        for name, mod_name, path in targets:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if outer:  # a method: its class is the only place to look
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self.replace(original, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """Per span name: calls, summed duration and summed self time."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, SpanStats())
            entry.calls += 1
            entry.total_s += end - start
            entry.self_s += end - start - child_s[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
