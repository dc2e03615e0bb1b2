"""Machine verification of the published inequality tables.

The classification of sextic classes rests on hand-derived inequality
tables: per-block displays organized by the intersection pattern of J with
{1, 2}, and three summary lists (one per factorization shape).  This
module transcribes those tables verbatim, including their printed row
tags, and re-derives everything from the Horn machinery:

* every printed index-set row is checked for well-formedness (the trace
  condition) and membership in the tilde and strict block restrictions;
* rows the source derives as implied are confirmed implied, exactly, by
  the double description of :mod:`weilgroup.linprog`;
* each summary list is diffed against the machine-reduced system, with
  suspected single-misprint pairs matched by coefficient distance;
* the unique redundant member of the full system at n = 6 is identified
  and compared against the printed one;
* the one summary line absent from the first list is analyzed in depth,
  with a concrete witness certified by the tableau-counting oracle.

The machine lists are authoritative; printed discrepancies are reported,
never silently patched.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

from .classify import case1_groups_from_profiles, quadratic_pairs
from .horn import HornTriple, enumerate_T_st
from .linprog import Cone, is_implied
from .oracle import lr_coefficient
from .partitions import merge_sorted
from .reduce import (
    ReducedSystem,
    _base_rows,
    _functional,
    _scalar_base,
    _scalarize_b,
    reduce_system,
    redundant_members_full,
)
from .smith import SmithInequality, _restricted, format_inequality

M6 = tuple(range(1, 7))
SIZES = (4, 2, 6)  # lengths of a, b and c in every sextic table


def _without(universe: Sequence[int], *remove: int) -> tuple[int, ...]:
    return tuple(x for x in universe if x not in remove)


# ---------------------------------------------------------------------------
# verbatim transcription of the displayed tables


@dataclass(frozen=True)
class PublishedRow:
    """One printed table row, expanded from its family over i.

    ``I``, ``J``, ``K`` are the printed index sets (J inferred from the
    block when the display omits it; K derived by the trace sum when the
    display shows only I and J).  ``a_idx``/``b_part``/``c_idx`` spell the
    printed inequality; ``sense`` is its printed direction.  ``scalar_b``
    marks the tables of the real-multiplier cases where both b's coincide.
    """

    row_id: str
    label: str
    block: str
    case: str
    I: tuple[int, ...] | None
    J: tuple[int, ...] | None
    K: tuple[int, ...] | None
    a_idx: tuple[int, ...]
    b_part: tuple[int, ...]  # indices into b; in scalar tables (1,)*count
    c_idx: tuple[int, ...]  # may carry repeats exactly as printed
    sense: str
    scalar_b: bool = False

    def pretty(self) -> str:
        return format_inequality(
            self.a_idx, self.b_part, self.c_idx, self.scalar_b, self.sense
        )


def _derive_K(I: Sequence[int], J: Sequence[int]) -> tuple[int, ...] | None:
    """The unique K completing (I, J) to a trace triple, if unique."""
    from itertools import combinations

    p = len(I)
    target = sum(I) + sum(J) - p * (p + 1) // 2
    matches = [K for K in combinations(M6, p) if sum(K) == target]
    return matches[0] if len(matches) == 1 else None


def published_rows_p2q() -> tuple[PublishedRow, ...]:
    """The four displayed tables for the squared-quadratic-times-quadratic case."""
    rows: list[PublishedRow] = []

    def add(label, block, I, J, K, a_idx, b_part, c_idx, sense, i=None):
        rid = f"p2q/{block}/{label}" + (f"/i={i}" if i is not None else "")
        rows.append(
            PublishedRow(rid, label, block, "p2q", I, J, K, a_idx, b_part,
                         c_idx, sense)
        )

    for i in range(1, 5):
        add("[0]", "sizes-1-and-5", (i,), (1,), (i,), (i,), (1,), (i,), ">=", i)
    for i in range(1, 5):
        # second family also printed with tag [0]: the display counter
        # starts at 0 and only increments after typesetting
        add("[0]b", "sizes-1-and-5", (i,), (2,), (i + 1,), (i,), (2,), (i + 1,), ">=", i)
    add("[1]", "sizes-1-and-5", (5,), (1,), (5,), (), (1,), (5,), ">=")
    add("[2]", "sizes-1-and-5", (5,), (2,), (6,), (), (2,), (6,), ">=")
    for i in range(1, 5):
        add("[3]", "sizes-1-and-5", (i,), (3,), (i + 2,), (i,), (), (i + 2,), ">=", i)
    add("[4]", "sizes-1-and-5", _without(M6, 6), _without(M6, 1),
        _derive_K(_without(M6, 6), _without(M6, 1)), (), (1,), (1,), "<=")
    add("[5]", "sizes-1-and-5", _without(M6, 6), _without(M6, 2),
        _derive_K(_without(M6, 6), _without(M6, 2)), (), (2,), (2,), "<=")
    for i in range(1, 5):
        add("[6]", "sizes-1-and-5", _without(M6, i), _without(M6, 6),
            _derive_K(_without(M6, i), _without(M6, 6)), (i,), (), (i,), "<=", i)

    from itertools import combinations

    for size in range(1, 5):
        for I in combinations(range(1, 5), size):
            p = size + 1
            add("[7]", "shifted-families", tuple(I) + (5,),
                tuple(range(2, p + 2)), tuple(x + 1 for x in I) + (6,),
                tuple(I), (2,), tuple(x + 1 for x in I) + (6,), ">=",
                "".join(map(str, I)))

    for i in range(1, 5):
        add("[8]", "sizes-2-and-4", (i, 5), (1, 3), (i, 6), (i,), (1,), (i, 6), ">=", i)
    for i in range(1, 4):
        add("[9]", "sizes-2-and-4", (i, 5), (1, 3), (i + 1, 5), (i,), (1,),
            (i + 1, 5), ">=", i)
    for i in range(1, 5):
        add("[10]", "sizes-2-and-4", _without((1, 2, 3, 4, 5), i), (1, 3, 4, 5),
            _without(M6, 1, i + 2), (i,), (2,), (1, i + 2), "<=", i)
    for i in range(1, 4):
        # the printed range; at i=1 the K set degenerates to a repeated index
        add("[11]", "sizes-2-and-4", _without((1, 2, 3, 4, 5), i), (1, 3, 4, 5),
            _without(M6, 2, i + 1), (i,), (2,), (2, i + 1), "<=", i)

    size3 = [
        ("[12]", (1, 2, 5), (1, 3, 6)),
        ("[13]", (1, 2, 5), (2, 3, 5)),
        ("[14]", (1, 3, 5), (1, 4, 6)),
        ("[14]", (1, 3, 5), (2, 3, 6)),  # printed twice: stray counter step
        ("[15]", (1, 3, 5), (2, 4, 5)),
        ("[16]", (1, 4, 5), (1, 5, 6)),
        ("[17]", (1, 4, 5), (2, 4, 6)),
        ("[18]", (2, 3, 5), (2, 4, 6)),
        ("[19]", (2, 3, 5), (3, 4, 5)),
        ("[20]", (2, 4, 5), (2, 5, 6)),
        ("[21]", (2, 4, 5), (3, 4, 5)),
        ("[22]", (3, 4, 5), (3, 5, 6)),
    ]
    for idx, (label, I, K) in enumerate(size3):
        rid_extra = "a" if label == "[14]" and K == (1, 4, 6) else None
        add(label + (rid_extra or ""), "size-3", I, (1, 3, 4), K,
            tuple(x for x in I if x <= 4), (1,), K, ">=")
    return tuple(rows)


def published_rows_real_sq() -> tuple[PublishedRow, ...]:
    """The three displayed tables for the real-multiplier cases (b1 = b2 = b)."""
    rows: list[PublishedRow] = []

    def add(label, block, I, J, K, a_idx, b_count, c_idx, sense, i=None):
        rid = f"real_sq/{block}/{label}" + (f"/i={i}" if i is not None else "")
        rows.append(
            PublishedRow(rid, label, block, "real_sq", I, J, K, a_idx,
                         (1,) * b_count, c_idx, sense, scalar_b=True)
        )

    for i in range(1, 5):
        add("[0]", "sizes-1-and-5", (i,), (1,), (i,), (i,), 1, (i,), ">=", i)
    add("[1]", "sizes-1-and-5", (5,), (1,), (5,), (), 1, (5,), ">=")
    for i in range(1, 5):
        add("[2]", "sizes-1-and-5", (i,), (3,), (i + 2,), (i,), 0, (i + 2,), ">=", i)
    add("[3]", "sizes-1-and-5", _without(M6, 6), _without(M6, 2),
        _derive_K(_without(M6, 6), _without(M6, 2)), (), 1, (2,), "<=")
    for i in range(1, 5):
        add("[4]", "sizes-1-and-5", _without(M6, i), _without(M6, 6),
            _derive_K(_without(M6, i), _without(M6, 6)), (i,), 0, (i,), "<=", i)
    for i in range(1, 5):
        add("[5]", "sizes-2-and-4", (i, 5), (1, 3), (i, 6), (i,), 1, (i, 6), ">=", i)
    for i in range(1, 4):
        add("[6]", "sizes-2-and-4", (i, 5), (1, 3), (i + 1, 5), (i,), 1,
            (i + 1, 5), ">=", i)
    for i in range(1, 5):
        add("[7]", "sizes-2-and-4", _without((1, 2, 3, 4, 5), i), (1, 3, 4, 5),
            _without(M6, 1, i + 2), (i,), 1, (1, i + 2), "<=", i)
    for i in range(1, 4):
        add("[8]", "sizes-2-and-4", _without((1, 2, 3, 4, 5), i), (1, 3, 4, 5),
            _without(M6, 2, i + 1), (i,), 1, (2, i + 1), "<=", i)
    size3 = [
        ("[9]", (1, 2, 5), (1, 3, 6)),
        ("[10]", (1, 2, 5), (2, 3, 5)),
        ("[11]", (1, 3, 5), (1, 4, 6)),
        ("[12]", (1, 3, 5), (2, 3, 6)),
        ("[13]", (1, 3, 5), (2, 4, 5)),
        ("[14]", (1, 4, 5), (1, 5, 6)),
        ("[15]", (1, 4, 5), (2, 4, 6)),
        ("[16]", (2, 3, 5), (2, 4, 6)),
        ("[17]", (2, 3, 5), (3, 4, 5)),
        ("[18]", (2, 4, 5), (2, 5, 6)),
        ("[19]", (2, 4, 5), (3, 4, 5)),
        ("[20]", (3, 4, 5), (3, 5, 6)),
    ]
    for label, I, K in size3:
        add(label, "size-3", I, (1, 3, 4), K,
            tuple(x for x in I if x <= 4), 1, K, ">=")
    return tuple(rows)


def _summary_row(label, a_idx, b_part, c_idx, sense, scalar_b, case, i=None):
    rid = f"{case}/summary/{label}" + (f"/i={i}" if i is not None else "")
    return PublishedRow(rid, label, "summary", case, None, None, None,
                        a_idx, b_part, c_idx, sense, scalar_b=scalar_b)


def summary_list_p2q() -> tuple[PublishedRow, ...]:
    """Printed inequality list of the summary statement for shape P^2 Q."""
    rows = []

    def add(label, a_idx, b_part, c_idx, sense, i=None):
        rows.append(_summary_row(label, a_idx, b_part, c_idx, sense, False,
                                 "p2q", i))

    add("[1]", (), (1,), (5,), ">=")
    add("[2]", (), (2,), (6,), ">=")
    for i in range(1, 5):
        add("[3]", (i,), (), (i + 2,), ">=", i)
    add("[4]", (), (1,), (1,), "<=")
    add("[5]", (), (2,), (2,), "<=")
    for i in range(1, 5):
        add("[6]", (i,), (), (i,), "<=", i)
    from itertools import combinations

    for size in range(1, 5):
        for I in combinations(range(1, 5), size):
            add("[7]", tuple(I), (2,), tuple(x + 1 for x in I) + (6,), ">=",
                "".join(map(str, I)))
    for i in range(1, 5):
        add("[8]", (i,), (1,), (i, 6), ">=", i)
    for i in range(1, 4):
        add("[9]", (i,), (1,), (i + 1, 5), ">=", i)
    for i in range(1, 5):
        add("[10]", (i,), (2,), (1, i + 2), "<=", i)
    for i in range(1, 4):
        add("[11]", (i,), (2,), (2, i + 1), "<=", i)
    size3 = [
        ("[12]", (1, 2), (1, 3, 6)),
        ("[13]", (1, 2), (2, 3, 5)),
        ("[14]", (1, 3), (2, 3, 6)),
        ("[15]", (1, 3), (2, 4, 5)),
        ("[16]", (1, 4), (1, 5, 6)),
        ("[17]", (1, 4), (2, 4, 6)),
        ("[18]", (2, 3), (2, 4, 6)),
        ("[19]", (2, 3), (3, 4, 5)),
        ("[20]", (2, 4), (2, 5, 6)),
        ("[21]", (2, 4), (3, 4, 5)),
        ("[22]", (3, 4), (3, 5, 6)),
    ]
    for label, a_idx, c_idx in size3:
        add(label, a_idx, (1,), c_idx, ">=")
    return tuple(rows)


def summary_list_real_sq(include_c1c4c6: bool) -> tuple[PublishedRow, ...]:
    """Printed list of a real-multiplier summary statement.

    The separable-quartic list carries the a1+a3 size-3 line with right
    side c1+c4+c6; the squared-quadratic list omits it (its two rows for
    a1+a4 / a2+a3 against c2+c4+c6 are printed under one merged tag).
    """
    case = "p_realsq" if include_c1c4c6 else "q2_realsq"
    rows = []

    def add(label, a_idx, b_count, c_idx, sense, i=None):
        rows.append(_summary_row(label, a_idx, (1,) * b_count, c_idx, sense,
                                 True, case, i))

    add("[1]", (), 1, (5,), ">=")
    for i in range(1, 5):
        add("[2]", (i,), 0, (i + 2,), ">=", i)
    add("[3]", (), 1, (2,), "<=")
    for i in range(1, 5):
        add("[4]", (i,), 0, (i,), "<=", i)
    for i in range(1, 5):
        add("[5]", (i,), 1, (i, 6), ">=", i)
    for i in range(1, 4):
        add("[6]", (i,), 1, (i + 1, 5), ">=", i)
    for i in range(1, 5):
        add("[7]", (i,), 1, (1, i + 2), "<=", i)
    for i in range(1, 4):
        add("[8]", (i,), 1, (2, i + 1), "<=", i)
    size3 = [
        ("[9]", (1, 2), (1, 3, 6)),
        ("[10]", (1, 2), (2, 3, 5)),
        ("[11]", (1, 3), (1, 4, 6)),
        ("[12]", (1, 3), (2, 3, 6)),
        ("[13]", (1, 3), (2, 4, 5)),
        ("[14]", (1, 4), (1, 5, 6)),
        ("[15]", (1, 4), (2, 4, 6)),
        ("[16]", (2, 3), (2, 4, 6)),
        ("[17]", (2, 3), (3, 4, 5)),
        ("[18]", (2, 4), (2, 5, 6)),
        ("[19]", (2, 4), (3, 4, 5)),
        ("[20]", (3, 4), (3, 5, 6)),
    ]
    if not include_c1c4c6:
        size3 = [row for row in size3 if row[1:] != ((1, 3), (1, 4, 6))]
        relabeled = []
        merged_seen = False
        for label, a_idx, c_idx in size3:
            if (a_idx, c_idx) == ((2, 3), (2, 4, 6)):
                label = "[15],[16]"
                merged_seen = True
            relabeled.append((label, a_idx, c_idx))
        size3 = relabeled
        assert merged_seen
    for label, a_idx, c_idx in size3:
        add(label, a_idx, 1, c_idx, ">=")
    return tuple(rows)


# ---------------------------------------------------------------------------
# functionals in trace-eliminated coordinates


def _sextic_functional(
    a_idx: Sequence[int],
    b_idx: Sequence[int],
    c_idx: Sequence[int],
    scalar_b: bool = False,
    sign: int = 1,
) -> tuple[int, ...]:
    """A row at ``SIZES`` as a >= 0 functional, b scalarised if asked."""
    z = _functional(a_idx, b_idx, c_idx, SIZES, sign)
    return _scalarize_b(z, *SIZES[:2]) if scalar_b else z


def _published_functional(row: PublishedRow) -> tuple[int, ...]:
    sign = 1 if row.sense == ">=" else -1
    return _sextic_functional(row.a_idx, row.b_part, row.c_idx, row.scalar_b, sign)


# ---------------------------------------------------------------------------
# report objects


@dataclass(frozen=True)
class RowCheck:
    row: PublishedRow
    well_formed: bool
    in_tilde: bool | None
    in_strict: bool | None
    note: str = ""


@dataclass(frozen=True)
class MisprintPair:
    published: str
    machine: str
    distance: int


@dataclass(frozen=True)
class ListDiff:
    case: str
    matched: int
    machine_only: tuple[str, ...]
    published_only: tuple[str, ...]
    misprint_pairs: tuple[MisprintPair, ...]
    residual_machine_only: tuple[str, ...]  # machine_only minus paired rows


@dataclass(frozen=True)
class SummaryListAnalysis:
    """Consequences of the first summary list's row-level anomalies.

    ``omitted_line``: the size-3 line present in the displays but absent
    from the summary; it is irredundant as an inequality, yet dropping it
    alone does not change any classified set on the profile grid (the
    union over witnesses absorbs it).  The concrete damage comes from the
    misprinted row: it wrongly rejects ``rejected_c`` at profiles
    ``grid_m``/``grid_n`` even though the tableau oracle realizes it via
    ``realizing_a``/``realizing_b``.  After the four row-level corrections
    the printed list classifies identically to the machine on the grid.
    """

    omitted_line: str
    in_strict_set: bool
    lp_irredundant: bool
    omission_changes_grid: bool
    misprinted_row: str
    corrected_row: str
    grid_m: tuple[int, ...]
    grid_n: tuple[int, ...]
    rejected_c: tuple[int, ...]
    realizing_a: tuple[int, ...]
    realizing_b: tuple[int, ...]
    lr_count: int
    misprint_rejects: bool
    corrected_row_holds: bool
    corrected_list_matches_grid: bool
    machine_matches_lr_on_grid: bool


@dataclass(frozen=True)
class VerifyReport:
    row_checks: tuple[RowCheck, ...]
    duplicate_labels: tuple[tuple[str, tuple[str, ...]], ...]
    implications: tuple[tuple[str, bool], ...]
    tilde_only_rows: tuple[str, ...]
    malformed_rows: tuple[str, ...]
    full_redundant_members: tuple[HornTriple, ...]
    full_redundancy_matches_print: bool
    full_redundancy_note: str
    diffs: tuple[ListDiff, ...]
    witness_equivalent_pairs: tuple[tuple[str, str], ...]
    analysis: SummaryListAnalysis
    scalar_prune_confirmed: bool
    notes: tuple[str, ...]

    def ok_rows(self) -> int:
        return sum(
            1 for rc in self.row_checks if rc.well_formed and rc.in_strict
        )

    def to_text(self) -> str:
        lines = ["published-table verification", "=" * 32]
        lines.append(
            f"rows checked: {len(self.row_checks)}; in strict restriction: "
            f"{self.ok_rows()}; outside strict (derived as implied): "
            f"{len(self.tilde_only_rows)}; malformed (trace violation): "
            f"{len(self.malformed_rows)}"
        )
        for rid in self.tilde_only_rows:
            lines.append(f"  implied-by-design row: {rid}")
        for rid in self.malformed_rows:
            lines.append(f"  MALFORMED printed row: {rid}")
        for label, rids in self.duplicate_labels:
            lines.append(f"  duplicated printed tag {label}: {', '.join(rids)}")
        lines.append("stated implications:")
        for name, okay in self.implications:
            lines.append(f"  {name}: {'confirmed' if okay else 'FAILED'}")
        lines.append(
            "full system at n = 6: redundant members "
            + ", ".join(
                f"(I={t.I}, J={t.J}, K={t.K})" for t in self.full_redundant_members
            )
        )
        lines.append("  " + self.full_redundancy_note)
        for diff in self.diffs:
            lines.append(
                f"summary list {diff.case}: {diff.matched} rows matched; "
                f"{len(diff.machine_only)} machine-only, "
                f"{len(diff.published_only)} published-only"
            )
            for pair in diff.misprint_pairs:
                lines.append(
                    f"  suspected misprint: printed '{pair.published}' vs "
                    f"machine '{pair.machine}' (coefficient distance {pair.distance})"
                )
            for row in diff.residual_machine_only:
                lines.append(f"  machine-only line: {row}")
        lines.append(
            "pairs identical under the squared-part relation a1+a4 = a2+a3:"
        )
        for x, y in self.witness_equivalent_pairs:
            lines.append(f"  {x}  ==  {y}")
        an = self.analysis
        lines.append(f"summary-list analysis ('{an.omitted_line}' omitted):")
        lines.append(
            f"  omitted line in strict restriction: {an.in_strict_set}; "
            f"LP-irredundant: {an.lp_irredundant}; omission alone changes "
            f"classified sets on the profile grid: {an.omission_changes_grid}"
        )
        lines.append(
            f"  misprinted row '{an.misprinted_row}' wrongly rejects "
            f"c={an.rejected_c} at m={an.grid_m}, n={an.grid_n}: realized by "
            f"witness a={an.realizing_a}, b={an.realizing_b} with tableau "
            f"count {an.lr_count}; corrected row '{an.corrected_row}' holds: "
            f"{an.corrected_row_holds}"
        )
        lines.append(
            f"  corrected printed list matches the machine on the grid: "
            f"{an.corrected_list_matches_grid}; machine matches the tableau "
            f"oracle on the grid: {an.machine_matches_lr_on_grid}"
        )
        lines.append(
            f"scalar-multiplier pruning (J containing 2 but not 1) confirmed: "
            f"{self.scalar_prune_confirmed}"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rows_checked": len(self.row_checks),
            "rows_in_strict": self.ok_rows(),
            "tilde_only_rows": list(self.tilde_only_rows),
            "malformed_rows": list(self.malformed_rows),
            "duplicate_labels": [
                {"label": label, "rows": list(rids)}
                for label, rids in self.duplicate_labels
            ],
            "implications": [
                {"name": name, "confirmed": okay}
                for name, okay in self.implications
            ],
            "full_redundant_members": [
                {"I": list(t.I), "J": list(t.J), "K": list(t.K)}
                for t in self.full_redundant_members
            ],
            "full_redundancy_matches_print": self.full_redundancy_matches_print,
            "full_redundancy_note": self.full_redundancy_note,
            "diffs": [asdict(d) for d in self.diffs],
            "witness_equivalent_pairs": [list(p) for p in self.witness_equivalent_pairs],
            "summary_list_analysis": asdict(self.analysis),
            "scalar_prune_confirmed": self.scalar_prune_confirmed,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# the verification run


def _check_row(row: PublishedRow, tables) -> RowCheck:
    tilde, strict = tables
    if row.I is None or row.J is None or row.K is None:
        return RowCheck(row, False, None, None, "index sets not printed")
    sets = (row.I, row.J, row.K)
    sizes = {len(s) for s in sets}
    increasing = all(all(a < b for a, b in zip(s, s[1:])) for s in sets)
    in_range = all(1 <= x <= 6 for s in sets for x in s)
    p = len(row.I)
    trace = sum(row.I) + sum(row.J) == sum(row.K) + p * (p + 1) // 2
    well_formed = len(sizes) == 1 and increasing and in_range and trace
    if not well_formed:
        return RowCheck(row, False, None, None, "trace or shape violation")
    tri = HornTriple(row.I, row.J, row.K)
    return RowCheck(row, True, tri in tilde[p], tri in strict[p])


@lru_cache(maxsize=1)
def verify_paper_lists() -> VerifyReport:
    """Run every check and assemble the report.  Cached per process."""
    tilde = {p: set(enumerate_T_st(4, 2, p, "tilde")) for p in range(1, 7)}
    strict = {p: set(enumerate_T_st(4, 2, p, "strict")) for p in range(1, 7)}
    tables = (tilde, strict)

    displayed = published_rows_p2q() + published_rows_real_sq()
    row_checks = tuple(_check_row(row, tables) for row in displayed)
    malformed = tuple(rc.row.row_id for rc in row_checks if not rc.well_formed)
    tilde_only = tuple(
        rc.row.row_id for rc in row_checks
        if rc.well_formed and rc.in_tilde and not rc.in_strict
    )

    dup: dict[tuple[str, str, str], list[str]] = {}
    for row in displayed:
        base_label = row.label.rstrip("ab")
        dup.setdefault((row.case, row.block, base_label), []).append(row.row_id)
    duplicate_labels = tuple(
        (key[2], tuple(sorted({r.rsplit("/i=", 1)[0] for r in rids})))
        for key, rids in sorted(dup.items())
        if len({r.rsplit("/i=", 1)[0] for r in rids}) > 1
    )

    base = _base_rows(SIZES, True)
    strict_rows = [
        _sextic_functional(*_restricted(tri, *SIZES[:2]).key())
        for p in range(1, 6)
        for tri in sorted(strict[p])
    ]
    strict_system = {
        False: strict_rows + base,
        True: [_scalarize_b(r, *SIZES[:2]) for r in strict_rows]
        + _scalar_base(base, *SIZES[:2]),
    }

    implications = []
    by_id = {rc.row.row_id: rc.row for rc in row_checks}
    for i in range(1, 5):
        target = _published_functional(by_id[f"p2q/sizes-1-and-5/[0]/i={i}"])
        prem = [
            _published_functional(by_id[f"p2q/shifted-families/[7]/i={i}"]),
            _published_functional(by_id[f"p2q/sizes-2-and-4/[8]/i={i}"]),
        ]
        implications.append(
            (f"[7](single)+[8] imply [0] at i={i}",
             is_implied(Cone([target, *prem, *base]), 0))
        )
    for rid in tilde_only:
        row = by_id[rid]
        implied = is_implied(Cone([_published_functional(row), *strict_system[row.scalar_b]]), 0)
        implications.append((f"{rid} implied by the strict system", implied))

    redundant = redundant_members_full(6)
    printed_triple = HornTriple((1, 3, 5), (1, 3, 5), (2, 4, 5))
    matches_print = tuple(redundant) == (printed_triple,)
    expected = HornTriple((1, 3, 5), (1, 3, 5), (2, 4, 6))
    if tuple(redundant) == (expected,):
        note = (
            "printed K = (2, 4, 5) violates the trace condition "
            "(9 + 9 != 11 + 6) and cannot be a member; the unique redundant "
            "member has K = (2, 4, 6), matching the printed I and J"
        )
    else:
        note = "unexpected redundancy set; see members above"

    machine_plain = reduce_system(4, 2, "smith")
    machine_scalar = reduce_system(4, 2, "smith", scalar_b=True)
    diffs = []
    for case, machine, published, scalar in (
        ("p2q", machine_plain, summary_list_p2q(), False),
        ("p_realsq", machine_scalar, summary_list_real_sq(True), True),
        ("q2_realsq", machine_scalar, summary_list_real_sq(False), True),
    ):
        machine_map = {}
        for iq in machine.kept:
            machine_map[_sextic_functional(*iq.key(), scalar)] = (
                iq.pretty_scalar_b() if scalar else iq.pretty()
            )
        published_map = {}
        for row in published:
            published_map.setdefault(_published_functional(row), row.pretty())
        matched = len(set(machine_map) & set(published_map))
        machine_only = {
            z: txt for z, txt in machine_map.items() if z not in published_map
        }
        published_only = {
            z: txt for z, txt in published_map.items() if z not in machine_map
        }
        pairs, paired_machine = _pair_misprints(published_only, machine_only)
        residual = tuple(
            txt for z, txt in sorted(machine_only.items(), key=lambda kv: kv[1])
            if z not in paired_machine
        )
        diffs.append(ListDiff(
            case=case,
            matched=matched,
            machine_only=tuple(sorted(machine_only.values())),
            published_only=tuple(sorted(published_only.values())),
            misprint_pairs=tuple(pairs),
            residual_machine_only=residual,
        ))

    # pairs of kept rows identical once a1 + a4 = a2 + a3 is imposed
    lhs, rhs = _sextic_functional((1, 4), (), ()), _sextic_functional((2, 3), (), ())
    relation = tuple(x - y for x, y in zip(lhs, rhs))
    kept_rows = [(_sextic_functional(*iq.key()), iq.pretty()) for iq in machine_plain.kept]
    equiv_pairs = []
    for idx, (z1, t1) in enumerate(kept_rows):
        for z2, t2 in kept_rows[idx + 1 :]:
            delta = tuple(x - y for x, y in zip(z1, z2))
            if delta == relation or delta == tuple(-x for x in relation):
                equiv_pairs.append((t1, t2))

    analysis = _summary_list_analysis(machine_plain)

    scalar_pruned = _scalar_prune_confirmed(machine_scalar)

    notes = (
        "the recursive membership test uses <=; the >= transcription seen "
        "in one published display reverses it and is incompatible with the "
        "closed forms of the size-1, size-2 and complementary families",
        "the two rows printed under one size-3 tag in the squared-quadratic "
        "times quadratic case are not equivalent under a1+a4 = a2+a3; the "
        "machine-detected equivalent pair is listed above",
    )

    return VerifyReport(
        row_checks=row_checks,
        duplicate_labels=duplicate_labels,
        implications=tuple(implications),
        tilde_only_rows=tilde_only,
        malformed_rows=malformed,
        full_redundant_members=tuple(redundant),
        full_redundancy_matches_print=matches_print,
        full_redundancy_note=note,
        diffs=tuple(diffs),
        witness_equivalent_pairs=tuple(equiv_pairs),
        analysis=analysis,
        scalar_prune_confirmed=scalar_pruned,
        notes=notes,
    )


def _pair_misprints(
    published_only: dict[tuple[int, ...], str],
    machine_only: dict[tuple[int, ...], str],
) -> tuple[list[MisprintPair], set[tuple[int, ...]]]:
    """Match published-only rows to machine-only rows, minimizing the total
    coefficient distance over all assignments (the diffs are tiny)."""
    from itertools import permutations

    pub = list(published_only.items())
    mach = list(machine_only.items())
    if not pub or not mach:
        return [], set()
    k = min(len(pub), len(mach))
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None
    idxs = range(len(mach))
    for chosen in permutations(idxs, k):
        assignment = tuple(zip(range(k), chosen))
        total = sum(
            _row_distance(pub[i][0], mach[j][0]) for i, j in assignment
        )
        if best is None or total < best[0]:
            best = (total, assignment)
    pairs = []
    paired = set()
    for i, j in best[1]:
        pairs.append(
            MisprintPair(pub[i][1], mach[j][1], _row_distance(pub[i][0], mach[j][0]))
        )
        paired.add(mach[j][0])
    return pairs, paired


def _row_distance(z1: tuple[int, ...], z2: tuple[int, ...]) -> int:
    """L1 distance between functionals modulo the trace direction.

    In trace-eliminated coordinates a raw c-index swap like c5 -> c6 shows
    up spread across many coordinates; minimizing over small multiples of
    the eliminated-trace direction recovers the natural edit distance.
    """
    # the z-image of the trace functional is zero, so re-adding it uses the
    # pre-elimination c6 column: +1 on every a and b, -1 on every other c
    scalar_b = len(z1) < sum(SIZES) - 1
    trace_dir = _sextic_functional((), (), (SIZES[2],), scalar_b, -1)
    best = None
    for k in range(-3, 4):
        d = sum(abs(x - y + k * t) for x, y, t in zip(z1, z2, trace_dir))
        if best is None or d < best:
            best = d
    return best


def _published_case1_set(
    rows: Sequence[PublishedRow], m, n
) -> set[tuple[int, ...]]:
    """Classified set per a printed list: union over witnesses of the c
    satisfying every row (plus the trace equality)."""
    from .partitions import partitions_of

    m_pairs = quadratic_pairs(m)
    a_wit = sorted({merge_sorted(p1, p2) for p1 in m_pairs for p2 in m_pairs})
    b_wit = quadratic_pairs(n)
    total = sum(a_wit[0]) + sum(b_wit[0])
    out = set()
    for c in partitions_of(total, 6):
        if any(
            all(_row_holds(row, a, b, c) for row in rows)
            for a in a_wit
            for b in b_wit
        ):
            out.add(c)
    return out


def _row_holds(row: PublishedRow, a, b, cc) -> bool:
    lhs = sum(a[i - 1] for i in row.a_idx) + sum(b[j - 1] for j in row.b_part)
    rhs = sum(cc[k - 1] for k in row.c_idx)
    return lhs >= rhs if row.sense == ">=" else lhs <= rhs


def _grid_profiles(max_total: int):
    from .partitions import partitions_of

    for m_tot in range(max_total + 1):
        for m in partitions_of(m_tot, 2):
            for n_tot in range(max_total + 1):
                for n in partitions_of(n_tot, 2):
                    yield m, n


def _summary_list_analysis(machine_plain: ReducedSystem) -> SummaryListAnalysis:
    """Machine adjudication of the first summary list's anomalies."""
    phi = SmithInequality((1, 3), (1,), (1, 4, 6),
                          HornTriple((1, 3, 5), (1, 3, 4), (1, 4, 6)))
    strict3 = set(enumerate_T_st(4, 2, 3, "strict"))
    in_strict = phi.triple in strict3
    lp_irredundant = any(iq.key() == phi.key() for iq in machine_plain.kept)

    published = summary_list_p2q()
    misprint = next(
        row for row in published
        if (row.a_idx, row.c_idx, row.sense) == ((2, 4), (3, 4, 5), ">=")
    )
    corrected_rows = [
        row for row in published
        if row is not misprint
        and (row.a_idx, row.b_part, row.c_idx, row.sense)
        != ((1,), (2,), (2, 2), "<=")
    ] + [
        _summary_row("[21]*", (2, 4), (1,), (3, 4, 6), ">=", False, "p2q"),
        _summary_row("[11]*", (4,), (2,), (2, 5), "<=", False, "p2q"),
    ]
    grid_m, grid_n = (1, 1), (2, 2)
    rejected_c = (2, 2, 2, 1, 1, 0)
    realizing_a, realizing_b = (2, 1, 1, 0), (2, 2)
    lr_count = lr_coefficient(realizing_a, realizing_b, rejected_c)
    misprint_rejects = not _row_holds(misprint, realizing_a, realizing_b, rejected_c)
    corrected_row_holds = _row_holds(
        _summary_row("[21]*", (2, 4), (1,), (3, 4, 6), ">=", False, "p2q"),
        realizing_a, realizing_b, rejected_c,
    )

    from .partitions import partitions_of

    phi_row = _summary_row("phi", (1, 3), (1,), (1, 4, 6), ">=", False, "p2q")
    omission_changes = False
    corrected_matches = True
    machine_matches_lr = True
    for m, n in _grid_profiles(4):
        machine_set = set(case1_groups_from_profiles(m, n))
        if _published_case1_set(corrected_rows, m, n) != machine_set:
            omission_changes = True
        if _published_case1_set(corrected_rows + [phi_row], m, n) != machine_set:
            corrected_matches = False
        m_pairs = quadratic_pairs(m)
        a_wit = sorted({merge_sorted(p1, p2) for p1 in m_pairs for p2 in m_pairs})
        b_wit = quadratic_pairs(n)
        total = sum(a_wit[0]) + sum(b_wit[0])
        oracle_set = {
            c for c in partitions_of(total, 6)
            if any(lr_coefficient(a, b, c) > 0 for a in a_wit for b in b_wit)
        }
        if oracle_set != machine_set:
            machine_matches_lr = False

    return SummaryListAnalysis(
        omitted_line=phi.pretty(),
        in_strict_set=in_strict,
        lp_irredundant=lp_irredundant,
        omission_changes_grid=omission_changes,
        misprinted_row=misprint.pretty(),
        corrected_row="a2+a4+b1 >= c3+c4+c6",
        grid_m=grid_m,
        grid_n=grid_n,
        rejected_c=rejected_c,
        realizing_a=realizing_a,
        realizing_b=realizing_b,
        lr_count=lr_count,
        misprint_rejects=misprint_rejects,
        corrected_row_holds=corrected_row_holds,
        corrected_list_matches_grid=corrected_matches,
        machine_matches_lr_on_grid=machine_matches_lr,
    )


def _scalar_prune_confirmed(machine_scalar: ReducedSystem) -> bool:
    """With b1 = b2, rows whose J meets {1, 2} only in {2} drop out."""
    for iq in machine_scalar.kept:
        if iq.triple is None:
            continue
        j_low = tuple(j for j in iq.triple.J if j <= 2)
        if j_low == (2,):
            return False
    return True
