"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side only: :meth:`Tracer.install`
wraps the public entry points of each layer (the functions below) for
the length of a traced phase and :meth:`Tracer.uninstall` restores the
originals, so an untraced phase runs the program exactly as shipped.
Nothing inside ``src/`` is modified.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``op`` the id every span of one
benchmark op shares.  A layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped public call."""
    import repro.interp.program as program
    import repro.mapping.placement as placement
    from repro.interp.interpreter import Interpreter
    from repro.interp.program import UCProgram
    from repro.service import ExecutionService

    return [
        # UCProgram.__init__ looks these three up in its own module
        (program, "parse_program", "lang.parse"),
        (program, "analyze", "lang.analyze"),
        (program, "build_layouts", "mapping.layouts"),
        # imported at call time inside UCProgram._make_sharded
        (placement, "derive_placement", "mapping.placement"),
        (UCProgram, "__init__", "interp.compile"),
        (UCProgram, "run", "interp.run"),
        (UCProgram, "prepare", "interp.prepare"),
        (UCProgram, "run_batch", "interp.run_batch"),
        (Interpreter, "run_main", "interp.execute"),
        (Interpreter, "run_main_from", "interp.execute"),
        (ExecutionService, "submit", "service.submit"),
        (ExecutionService, "step", "service.step"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        #: id shared by every span of the current op
        self.op = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis --------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Seconds spent in each span called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_seconds(self, skip_op: int = -1) -> Dict[str, float]:
        """Per-layer self time (layer = span name before the first dot),
        leaving out the spans of op ``skip_op``."""
        child = [0.0] * len(self.spans)
        for n, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for k, (n, start, end, _, op) in enumerate(self.spans):
            if op != skip_op:
                out[n.split(".", 1)[0]] += (end - start) - child[k]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "spans": self.spans},
                fh,
            )

