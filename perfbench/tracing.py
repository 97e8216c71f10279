"""Per-layer tracing from outside the package.

`Tracer.install` replaces every module binding of a traced function (the
defining module's name and each `from .x import f` copy, including the
package's re-exports) with one wrapper, and sets traced methods on their
class. `uninstall` restores the originals. Nothing under `src/` changes.

The wrappers aggregate instead of keeping one span per call (A-SPADE makes
millions of calls): per traced name a call count, a self time and an element
total. Times are CPU time of the calling thread, so a pool thread waiting
for the interpreter lock or for the CPU is not counted as busy, and self
times add up across threads. A call's self time is its time minus that of
the traced calls it makes on the same thread.
"""

from __future__ import annotations

import functools
import sys
import threading
from threading import get_ident
from time import thread_time

# (module, attribute, class or None) for every traced callable; the traced
# name is "<module>.<attribute>".
TRACED = (
    ("frames", "analyze", "FrameOperator"),
    ("frames", "synthesize", "FrameOperator"),
    ("feasible", "detect_masks", None),
    ("feasible", "project_gamma", None),
    ("feasible", "project_gamma_coef", None),
    ("solvers", "hard_threshold", None),
    ("solvers", "run_solver", None),
    ("segmentation", "plan_segmentation", None),
    ("segmentation", "restrict_model", None),
    ("segmentation", "overlap_add", None),
    ("pipeline", "declip_signal", None),
    ("metrics", "sdr", None),
    ("wavio", "read_wav", None),
    ("wavio", "write_wav", None),
    ("cli", "main", None),
)

# Element totals: the size of what the call returns. Counting elements
# rather than calls keeps the figure comparable if calls get batched.
ELEMENTS = {"frames.analyze", "frames.synthesize", "solvers.hard_threshold"}


class Tracer:
    """Aggregating tracer for one benchmark process.

    Bracket each call under test with `begin(tag)` and `end()`: CPU times
    of `solvers.run_solver` are kept per tag (the variant), and the number
    of distinct threads that ran a `solvers.*` function is kept per call.
    """

    def __init__(self, package: str = "spadeclip"):
        self.package = package
        self.tag = None
        self.frame_s: dict[object, list[float]] = {}
        self.threads_per_call: list[int] = []
        self._call_threads: set[int] = set()
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, tag) -> None:
        self.tag = tag
        self._call_threads.clear()

    def end(self) -> None:
        self.threads_per_call.append(len(self._call_threads))

    def _new_table(self) -> tuple[list[float], dict]:
        loc = self._local
        loc.stack, loc.stats = [], {}
        with self._lock:
            self._tables.append(loc.stats)
        return loc.stack, loc.stats

    def stats(self) -> dict[str, list]:
        """name -> [calls, self CPU seconds, elements], merged over threads."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, elements) in table.items():
                m = merged.setdefault(name, [0, 0.0, 0])
                m[0] += calls
                m[1] += self_s
                m[2] += elements
        return merged

    def _wrap(self, name: str, fn):
        local = self._local
        new_table = self._new_table
        count_elements = name in ELEMENTS
        call_threads = self._call_threads if name.startswith("solvers.") else None
        frame_s = self.frame_s if name == "solvers.run_solver" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, stats = local.stack, local.stats
            except AttributeError:
                stack, stats = new_table()
            stack.append(0.0)
            t0 = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = thread_time() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += dur - child
                if call_threads is not None:
                    call_threads.add(get_ident())
                if frame_s is not None:
                    frame_s.setdefault(tracer.tag, []).append(dur)
            if count_elements:
                entry[2] += int(getattr(out, "size", 0))
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced callable that exists in the loaded package."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for mod_name, attr, cls_name in TRACED:
            home = sys.modules.get(f"{self.package}.{mod_name}")
            owner = getattr(home, cls_name, None) if cls_name else home
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            if cls_name:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
