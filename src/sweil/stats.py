"""Phase timings and problem sizes that sweil records itself.

One process-wide table of named spans (calls, seconds) and counts, always
on and never printed: a report records a few hundred entries, each well
under a microsecond.  ``reset()`` empties it and ``snapshot()`` copies it
out as {"spans": {name: [calls, seconds]}, "counts": {name: total}}.

Spans, each including the spans it calls:
  fock.enumerate_box                   box enumerations, every caller
  bulkrep.Universe.rows_of             occupancy rows of a box
  bulkrep.BulkEngine._compile          operators into the engine table
  bulkrep.BulkEngine._build_domain     box matrices and level-1 domain
  bulkrep.BulkEngine._batch_sums       checksum kernel passes
  bulkrep.BulkEngine._inner_weights    inner checksum weights, cache hits too
  bulkrep.BulkEngine._rhs_sums         right-hand-side checksum sums
  cohomology.kahler_matrix_checks      the Kahler package checks
  verify.fast_bracket_check            one relation of those checks
Counts of the bulk engine, the pairs per _batch_sums call, the columns
per plan, the rest per prepare:
  bulkrep.checksum_pairs               (instance, state) pairs summed
  bulkrep.plan.box_columns             box columns of the engine
  bulkrep.plan.weighted_columns        those with a checksum weight: at
                                       most q quanta, q the plan's quanta
  bulkrep.n1                           level-1 states
  bulkrep.level1_bytes                 their provenance: box column, table row
  bulkrep.level1_row_bytes             n1 x nslots, the rows it replaces
  bulkrep.box_matrix_entries           box-matrix entries, repeats included
  bulkrep.box_matrix_bytes             their rows, columns and entries
  bulkrep.table_rows                   engine table rows
  bulkrep.table_cells.constraint       table cells (rows x width) of each
  bulkrep.table_cells.count_factor     column kind, padding included
  bulkrep.table_cells.parity
  bulkrep.table_cells.change
Counts of the cohomology path, one per call, then the package engine's
memo sizes, once per kahler_matrix_checks:
  cohomology.exact_rank_kernel         eliminations
  cohomology.piece_basis               piece bases built
  cohomology.solve_in_span             solves against a basis
  verify.FastEngine.columns            FastOp columns formed
  verify.FastEngine.leaf_applications  FieldOperator leaf columns
  verify.FastEngine.slot_bounds        _slot_bounds entries
"""

from time import perf_counter

_spans = {}  # name -> [calls, seconds]
_counts = {}  # name -> total


class span:
    """Context manager adding one call and its seconds to span ``name``."""

    __slots__ = ("name", "start")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.start = perf_counter()

    def __exit__(self, *exc):
        rec = _spans.get(self.name) or _spans.setdefault(self.name, [0, 0.0])
        rec[0] += 1
        rec[1] += perf_counter() - self.start


def count(name: str, n: int = 1):
    _counts[name] = _counts.get(name, 0) + n


def snapshot() -> dict:
    return {"spans": {k: list(v) for k, v in _spans.items()}, "counts": dict(_counts)}


def reset():
    _spans.clear()
    _counts.clear()
