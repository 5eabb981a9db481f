"""Process-wide persistent pin-feasibility oracle store.

The :class:`~repro.core.pin_allocation.PinAllocationChecker` answers
"would pinning op ``w`` to control-step group ``k`` keep the pin ILP
feasible?" — a pure function of *(design structure, committed set,
probed bound, pin budgets)*.  Historically each checker memoized those
verdicts in a private dict and threw them away with the checker, even
though explorer sweeps and the synthesis service re-solve the same
design at nudged budgets constantly.  This module lifts that dict into
a shareable :class:`OracleStore`:

* **keyed by structure, not budgets** — the design signature covers the
  graph, the initiation rate, and each chip's port-model *pattern*
  (bidirectional / split-fixed flags), while every recorded verdict
  carries the concrete budget vector it was proved at;
* **monotonicity shortcuts** — pin feasibility is monotone in the
  budget vector (every budget is the rhs of a ``<=`` row or an upper
  bound, i.e. raising it only relaxes the ILP), so a verdict at one
  budget answers queries at *dominating* budgets: feasible at a
  component-wise smaller-or-equal vector implies feasible; an
  infeasibility proof at a component-wise larger-or-equal vector
  implies infeasible.  Many neighbor-point queries need no ILP at all;
* **JSONL persistence** in the same append-only, corrupt-line-tolerant
  format as the explorer's :class:`repro.explore.cache.ResultCache`;
* **cross-process deltas** — forked pool workers inherit the parent's
  store (see :func:`activate`), record into memory only, and ship the
  appended suffix back via :meth:`delta_since` for the parent to
  :meth:`merge`, mirroring the :class:`repro.perf.PerfRegistry`
  aggregation contract.

Soundness rule: only verdicts proved by *exact* methods (Gomory
cutting planes, branch & bound) may be recorded.  The checker's
LP-relaxation degradation rung gives optimistic "yes" answers that
would poison a shared store; the checker keeps those to itself.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.appendlog import append_line
from repro.perf import PERF

#: Store line format version.
STORE_VERSION = 1

#: (design signature, committed-set fingerprint, node name, group).
OracleKey = Tuple[str, Tuple[Tuple[str, int], ...], str, int]

#: Per-chip budget components in sorted chip-index order, flattened:
#: (total_pins, input_pins or -1, output_pins or -1) per chip.  The -1
#: placeholders line up across queries because the split-fixed pattern
#: is part of the design signature.
BudgetVector = Tuple[int, ...]

#: The pseudo-query meaning "is the base model (plus committed set)
#: feasible at all?" — the checker's constructor question.
INIT_NODE = ""
INIT_GROUP = -1


def budget_vector(partitioning) -> BudgetVector:
    """The monotone budget coordinates of a partitioning."""
    out: List[int] = []
    for index in partitioning.indices():
        spec = partitioning.chip(index)
        out.append(spec.total_pins)
        out.append(-1 if spec.input_pins is None else spec.input_pins)
        out.append(-1 if spec.output_pins is None else spec.output_pins)
    return tuple(out)


def _dominates_le(smaller: BudgetVector, larger: BudgetVector) -> bool:
    """True when ``smaller <= larger`` component-wise (same pattern)."""
    if len(smaller) != len(larger):
        return False
    return all(a <= b for a, b in zip(smaller, larger))


def _witness_fits(witness: BudgetVector, budgets: BudgetVector) -> bool:
    """Does a feasible point's usage vector fit inside ``budgets``?

    ``-1`` on either side means "this coordinate is unconstrained"
    (no split input/output cap in the budget, or a port-model slot the
    ILP never bounds in the witness) and is skipped.  Positions align
    because the split-fixed pattern is part of the design signature.
    """
    if len(witness) != len(budgets):
        return False
    return all(w <= b for w, b in zip(witness, budgets)
               if w >= 0 and b >= 0)


class OracleStore:
    """Budget-indexed verdict lists with dominance lookup.

    Thread-safe (service handlers and pool threads share one instance);
    persistence is optional and append-only.  A store created in a
    parent process stops writing to disk after a ``fork`` — children
    record in memory and return deltas, the parent owns the file.
    """

    def __init__(self, path: Optional[str] = None,
                 sync: bool = False) -> None:
        self.path = path
        self.sync = bool(sync)
        self._lock = threading.RLock()
        #: key -> list of (budget vector, verdict, witness-or-None),
        #: append order.  The witness is the pin-usage vector of the
        #: feasible point that proved a True verdict; it transfers the
        #: verdict to every budget vector it still fits (a far sharper
        #: shortcut than budget dominance alone).
        self._entries: Dict[
            OracleKey,
            List[Tuple[BudgetVector, bool,
                       Optional[BudgetVector]]]] = {}
        #: Flat append log, the unit of cross-process delta shipping.
        self._log: List[Dict[str, Any]] = []
        self._pid = os.getpid()
        self.exact_hits = 0
        self.dominance_hits = 0
        self.misses = 0
        self.corrupt_lines = 0
        if path is not None and os.path.exists(path):
            self._load(path)

    # -- persistence ---------------------------------------------------
    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if entry.get("v") != STORE_VERSION:
                        raise ValueError("version mismatch")
                    self._insert(entry, log=False)
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1

    def _append_line(self, entry: Dict[str, Any]) -> None:
        if self.path is None or os.getpid() != self._pid:
            return  # forked children never write the parent's file
        append_line(self.path, json.dumps(
            dict(entry, v=STORE_VERSION), separators=(",", ":"),
            sort_keys=True), sync=self.sync)

    # -- entry plumbing ------------------------------------------------
    @staticmethod
    def _entry_key(entry: Mapping[str, Any]) -> OracleKey:
        fingerprint = tuple((str(op), int(group))
                            for op, group in entry["fp"])
        return (str(entry["sig"]), fingerprint,
                str(entry["node"]), int(entry["group"]))

    def _insert(self, entry: Mapping[str, Any], log: bool) -> bool:
        """Index one plain-data entry; returns True if new."""
        key = self._entry_key(entry)
        budgets = tuple(int(b) for b in entry["budgets"])
        verdict = bool(entry["verdict"])
        raw_witness = entry.get("witness")
        witness = (None if raw_witness is None
                   else tuple(int(w) for w in raw_witness))
        bucket = self._entries.setdefault(key, [])
        if any(vec == budgets and v == verdict and w == witness
               for vec, v, w in bucket):
            return False
        bucket.append((budgets, verdict, witness))
        if log:
            logged = {
                "sig": key[0], "fp": [list(p) for p in key[1]],
                "node": key[2], "group": key[3],
                "budgets": list(budgets), "verdict": verdict,
            }
            if witness is not None:
                logged["witness"] = list(witness)
            self._log.append(logged)
        return True

    # -- public API ----------------------------------------------------
    def lookup(self, key: OracleKey,
               budgets: BudgetVector) -> Optional[Tuple[bool, str]]:
        """Answer a query, or None.  Returns ``(verdict, kind)`` with
        ``kind`` in ``("exact", "dominance")``.

        Exact match first; otherwise the monotonicity shortcuts:
        *feasible* at a smaller-or-equal budget vector, *feasible*
        with a recorded witness whose pin usage fits the queried
        budgets, or *infeasible* at a larger-or-equal vector.
        """
        with self._lock:
            bucket = self._entries.get(key)
            if not bucket:
                self.misses += 1
                return None
            for vec, verdict, _witness in bucket:
                if vec == budgets:
                    self.exact_hits += 1
                    return verdict, "exact"
            for vec, verdict, witness in bucket:
                if verdict and (_dominates_le(vec, budgets)
                                or (witness is not None
                                    and _witness_fits(witness, budgets))):
                    self.dominance_hits += 1
                    PERF.inc("pin.store_dominance_hits")
                    return True, "dominance"
                if not verdict and _dominates_le(budgets, vec):
                    self.dominance_hits += 1
                    PERF.inc("pin.store_dominance_hits")
                    return False, "dominance"
            self.misses += 1
            return None

    def record(self, key: OracleKey, budgets: BudgetVector,
               verdict: bool,
               witness: Optional[BudgetVector] = None) -> None:
        """Record an exact-method verdict (and persist it).

        ``witness`` — only meaningful with ``verdict=True`` — is the
        pin-usage vector of the feasible point the solver found.
        """
        entry = {
            "sig": key[0], "fp": [list(p) for p in key[1]],
            "node": key[2], "group": key[3],
            "budgets": list(budgets), "verdict": bool(verdict),
        }
        if verdict and witness is not None:
            entry["witness"] = [int(w) for w in witness]
        with self._lock:
            if self._insert(entry, log=True):
                self._append_line(entry)

    # -- cross-process aggregation -------------------------------------
    def mark(self) -> int:
        """Checkpoint for :meth:`delta_since`."""
        with self._lock:
            return len(self._log)

    def delta_since(self, mark: int) -> List[Dict[str, Any]]:
        """Entries appended since ``mark`` (plain data, JSON-able)."""
        with self._lock:
            return [dict(entry) for entry in self._log[mark:]]

    def merge(self, delta: Optional[List[Mapping[str, Any]]]) -> int:
        """Fold a worker's delta in; returns the number of new entries.

        New entries are persisted and re-logged, so deltas propagate
        transitively (worker -> sweep store -> service store).
        """
        if not delta:
            return 0
        added = 0
        with self._lock:
            for entry in delta:
                try:
                    fresh = self._insert(entry, log=True)
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                if fresh:
                    self._append_line(self._log[-1])
                    added += 1
        return added

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._entries.values())

    def items(self) -> Iterator[
            Tuple[OracleKey,
                  List[Tuple[BudgetVector, bool,
                             Optional[BudgetVector]]]]]:
        with self._lock:
            return iter(list(self._entries.items()))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            lookups = self.exact_hits + self.dominance_hits + self.misses
            return {
                "entries": sum(len(b) for b in self._entries.values()),
                "keys": len(self._entries),
                "exact_hits": self.exact_hits,
                "dominance_hits": self.dominance_hits,
                "misses": self.misses,
                "hit_rate": (round(
                    (self.exact_hits + self.dominance_hits) / lookups, 4)
                    if lookups else 0.0),
                "corrupt_lines": self.corrupt_lines,
            }


# ---------------------------------------------------------------------
#: The process-wide active store.  ``None`` by default: plain solves and
#: cold benchmarks stay isolated; the warm explorer and the synthesis
#: service opt in via :func:`activate` *before* forking their worker
#: pools, so children inherit the instance.
_ACTIVE: Optional[OracleStore] = None


def get_active() -> Optional[OracleStore]:
    return _ACTIVE


def activate(store: Optional[OracleStore]) -> Optional[OracleStore]:
    """Install ``store`` as the process-wide default; returns the
    previous one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous
