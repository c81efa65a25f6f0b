"""Span recorder and layer wrappers for the traced benchmark run.

A span is one call into a layer function: its name, start, end, parent span
and the op it served.  Spans live in flat arrays while the run lasts and are
written out once at the end.  Nothing here edits the package: `LayerTracer`
replaces a layer function on every skewrank module that binds it (so a call
one layer makes through its own `from .x import f` is caught too) and puts
the originals back on `uninstall`.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# Layer functions recorded as spans named "<module>.<function>".
LAYER_FUNCTIONS = (
    ("gfcodes", "make_field"),
    ("gfcodes", "dual"),
    ("krawtchouk", "p_matrix"),
    ("qcombinat", "gauss"),
    ("macwilliams", "transform_matrix"),
    ("macwilliams", "transform_functional"),
    ("macwilliams", "verify_code"),
    ("homopoly", "skew_q_product"),
    ("homopoly", "mu_power"),
    ("homopoly", "nu_power"),
    ("moments", "msrd_distribution"),
    ("moments", "check_first_moment"),
    ("moments", "check_second_moment"),
    ("moments", "corollary_bounds"),
)

# Span names chosen when the call returns, from what the call did.
RANK_TABLE_HIT = "gfcodes.rank_table"
RANK_TABLE_BUILD = "gfcodes.rank_table.build"
WDIST_TABLED = "gfcodes.weight_distribution.tabled"
WDIST_UNTABLED = "gfcodes.weight_distribution.untabled"
WORDS_TABLED = "words_tabled"
WORDS_UNTABLED = "words_untabled"
TABLE_ENTRIES = "rank_table_entries"


class SpanRecorder:
    """Flat, append-only span store with per-op counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[tuple[int, str], int] = {}
        self.tables_returned = 0
        self._seen_tables: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        k = (self.op_id, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def note_table(self, tbl) -> bool:
        """Count a returned rank table; True when this object is new (built)."""
        self.tables_returned += 1
        if id(tbl) in self._seen_tables:
            return False
        self._seen_tables[id(tbl)] = tbl  # keeps the id from being reused
        return True

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        out = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                out[p] -= end[i] - start[i]
        return out

    def totals_by_op(self) -> dict[int, dict[str, list]]:
        """op id -> span name -> [calls, self seconds, wall seconds]."""
        selfs = self.self_times()
        out: dict[int, dict[str, list]] = {}
        names = self.names
        for i, (nid, op) in enumerate(zip(self.name, self.op)):
            row = out.setdefault(op, {}).setdefault(names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += selfs[i]
            row[2] += self.end[i] - self.start[i]
        return out

    # -- files --------------------------------------------------------------

    def dump(self, path: str, header: dict | None = None) -> None:
        """One JSON header line, then the columns as raw machine arrays."""
        head = dict(header or {})
        head.update(
            names=self.names,
            spans=len(self),
            counts=[[op, key, n] for (op, key), n in self.counts.items()],
            columns=[["name", "I"], ["parent", "i"], ["op", "i"],
                     ["start", "d"], ["end", "d"]],
            byteorder=sys.byteorder,
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for col in (self.name, self.parent, self.op, self.start, self.end):
                col.tofile(fh)


class LayerTracer:
    """Installs span-recording wrappers over the package's layer functions."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "skewrank" or name.startswith("skewrank.")
        }
        self._swaps: list[tuple[object, str, object, object]] = []
        for mod_name, fn_name in LAYER_FUNCTIONS:
            orig = getattr(mods[f"skewrank.{mod_name}"], fn_name)
            self._bind_everywhere(mods, orig, _plain(rec, f"{mod_name}.{fn_name}", orig))
        gf = mods["skewrank.gfcodes"]
        self._bind_everywhere(mods, gf.rank_table, _rank_table(rec, gf.rank_table))
        self._bind_everywhere(
            mods, gf.weight_distribution,
            _weight_distribution(rec, gf.weight_distribution),
        )
        # Scalars are evaluated through the method, not the module function.
        scalar = mods["skewrank.lambda_ring"].LambdaScalar
        orig = scalar.__dict__["eval_lambda"]
        self._swaps.append(
            (scalar, "eval_lambda", orig, _plain(rec, "lambda_ring.eval_lambda", orig))
        )

    def _bind_everywhere(self, mods: dict, orig, wrapper) -> None:
        for mod in mods.values():
            for attr, val in vars(mod).items():
                if val is orig:
                    self._swaps.append((mod, attr, orig, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._swaps:
            setattr(owner, attr, orig)


def _plain(rec: SpanRecorder, name: str, fn):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(i)

    return wrapper


def _rank_table(rec: SpanRecorder, fn):
    hit = rec.name_id(RANK_TABLE_HIT)
    build = rec.name_id(RANK_TABLE_BUILD)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.begin(hit)
        try:
            tbl = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if tbl is not None and rec.note_table(tbl):
            rec.name[i] = build
            rec.count(TABLE_ENTRIES, len(tbl))
        return tbl

    return wrapper


def _weight_distribution(rec: SpanRecorder, fn):
    tabled = rec.name_id(WDIST_TABLED)
    untabled = rec.name_id(WDIST_UNTABLED)

    @functools.wraps(fn)
    def wrapper(code, *args, **kwargs):
        before = rec.tables_returned
        i = rec.begin(untabled)
        try:
            dist = fn(code, *args, **kwargs)
        finally:
            rec.finish(i)
        # A rank table handed out during the call means lookups, not elimination.
        if rec.tables_returned != before:
            rec.name[i] = tabled
            rec.count(WORDS_TABLED, code.size)
        else:
            rec.count(WORDS_UNTABLED, code.size)
        return dist

    return wrapper
