"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around calls into the
program's public functions; nothing inside the program is instrumented.
Each span holds a name, start, end, parent span id and request id.  The
recorder is only touched from the load-generating thread.
"""

import gzip
import json
from collections import defaultdict
from statistics import median


class Tracer:
    """Collects spans in memory and writes them out once, at the end."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, rid)

    def record(self, name, start, end, parent=None, rid=None):
        """Store one finished span; returns its id (for child spans)."""
        self.spans.append((name, start, end, parent, rid))
        return len(self.spans) - 1

    def reserve(self, name, start, rid=None):
        """Open a parent span whose end is filled in by :meth:`close`, so
        children recorded in between can point at it."""
        return self.record(name, start, start, None, rid)

    def close(self, span_id, end):
        name, start, _, parent, rid = self.spans[span_id]
        self.spans[span_id] = (name, start, end, parent, rid)

    def durations(self, name):
        """Durations (seconds) of every span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def p50(self, name):
        """Median duration of the spans called ``name``."""
        return median(self.durations(name))

    def self_times(self):
        """Per span name: (count, total seconds, self seconds).

        Self time is a span's duration minus the part of it that its child
        spans cover (children of one parent never overlap here: one thread
        records them in sequence).
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            count, total, own = table.get(name, (0, 0.0, 0.0))
            dur = end - start
            table[name] = (count + 1, total + dur, own + dur - child_time[i])
        return table

    def write(self, path, header):
        """Write ``header`` and then every span, one JSON object per line,
        gzip-compressed (a traced run records a few hundred thousand)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }) + "\n")
