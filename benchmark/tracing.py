"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into the package's public functions by
replacing each function under the name its caller looks it up by (a
module attribute or a class attribute).  Nothing inside ``src/`` changes.
Each span is ``[name, start, end, parent_index, nbytes]``; the spans are
kept in a list and written out once, when the process ends.

Only the standard library is imported here, so the recorder can be set up
before ``import koopman`` is timed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original, wrapper)

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count_bytes: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        With ``count_bytes`` the span also records the bytes of the first
        argument and of the result (both numpy arrays), as an FFT reads
        and writes them.
        """
        original = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count_bytes:
                spans[idx][4] = args[0].nbytes + out.nbytes
            return out

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def subtree(self, root: int) -> list:
        """Indices of ``root`` and every span below it (spans are stored in
        opening order, so a subtree is a contiguous run)."""
        end = root + 1
        stop = self.spans[root][2]
        while end < len(self.spans) and self.spans[end][1] < stop:
            end += 1
        return list(range(root, end))

    def self_times(self, indices) -> dict:
        """Self time per span index: duration minus direct children."""
        own = {i: self.spans[i][2] - self.spans[i][1] for i in indices}
        for i in indices:
            parent = self.spans[i][3]
            if parent in own:
                own[parent] -= self.spans[i][2] - self.spans[i][1]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "nbytes"],
                       "spans": self.spans}, fh)
