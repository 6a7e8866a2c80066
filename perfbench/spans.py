"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the library from the benchmark's own
code: name, start, end, parent and run id. They stay in memory until the run
ends and are then written out as JSON. A layer's self time is its span's
duration minus the time its child spans cover.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Summed self time per span name, in seconds."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += rec["end"] - rec["start"] - child[rec["id"]]
        return dict(out)

    def durations(self, name):
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh, indent=1)
