"""Output checks the benchmark runs inside every workload.

Each check compares program outputs that must agree exactly; a failed check
is counted against the run and makes the command exit nonzero. ``Digest``
fingerprints emitted tokens and trained weights so two commits can confirm
bit-identical output for the same workload and seed.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

_LOSS = re.compile(r"\bloss\s+(\S+)")


def same_tokens(a, b) -> bool:
    return [int(t) for t in a] == [int(t) for t in b]


def caches_bitwise_equal(a, b) -> bool:
    """Same geometry, length, knowledge mark and bit pattern of every row."""
    if (a.config_hash, a.n_layers, a.n_heads, a.head_dim, a.n_tokens,
            a.doc_mark) != (b.config_hash, b.n_layers, b.n_heads, b.head_dim,
                            b.n_tokens, b.doc_mark):
        return False
    for layer in range(a.n_layers):
        for rows in ((a.k_rows(layer), b.k_rows(layer)),
                     (a.v_rows(layer), b.v_rows(layer))):
            if rows[0].tobytes() != rows[1].tobytes():
                return False
    return True


def weights_bitwise_equal(a, b) -> bool:
    ta, tb = list(a.tensors()), list(b.tensors())
    return len(ta) == len(tb) and all(
        na == nb and xa.dtype == xb.dtype and xa.tobytes() == xb.tobytes()
        for (na, xa), (nb, xb) in zip(ta, tb))


def logged_loss(line: str) -> float:
    """The loss value of one ``train_lookup`` log line."""
    m = _LOSS.search(line)
    if m is None:
        raise ValueError(f"no loss in log line {line!r}")
    return float(m.group(1))


def finite_loss(line: str) -> bool:
    return math.isfinite(logged_loss(line))


class Checks:
    """Counts of attempted and failed checks, with the first few failures."""

    MAX_DETAILS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_name: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        counts = self.by_name.setdefault(name, [0, 0])
        counts[0] += 1
        if not ok:
            self.failed += 1
            counts[1] += 1
            if len(self.failures) < self.MAX_DETAILS:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "by_name": {k: {"attempted": a, "failed": f}
                            for k, (a, f) in sorted(self.by_name.items())},
                "failures": list(self.failures)}


class Digest:
    """SHA-256 over a labelled stream of token lists and weight tensors."""

    def __init__(self):
        self._h = hashlib.sha256()

    def tokens(self, label: str, toks) -> None:
        self._h.update(f"{label}:".encode())
        ids = np.asarray([int(t) for t in toks], dtype="<i4")
        self._h.update(ids.tobytes())

    def weights(self, label: str, weights) -> None:
        self._h.update(f"{label}:".encode())
        for name, arr in weights.tensors():
            self._h.update(name.encode())
            self._h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()
