"""End-to-end analyses that tie the layers together and cache the
expensive parts.

A GroupAnalysis owns one permutation group and lazily computes, in
order: the group as a stabilizer chain, its conjugacy classes, the
character table (canonical row and column order), and a reporting view
of that table.
For the two embedded groups the reporting view adopts the row order and
row labels of the published reference table whenever the computed table
matches it under fingerprint constraints; decompositions are then
directly comparable with the published multiplicity vectors.  Columns
always stay in canonical class order.

Analyses for the embedded groups are cached per process so the command
line and the test suite pay for the chain, the class walk and the
character table once.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import datasets
from .chartab import (CharacterTable, ClassFunction, MatchResult,
                      match_columns, permutation_character)
from .dixon import compute_character_table
from .errors import InputError
from .perm import ClassSet, FiniteGroup, parse_cycles
from .tensor import check_closed_forms, transition_matrix


class GroupAnalysis:
    def __init__(self, spec: dict, is_builtin: bool = False):
        self.spec = spec
        self.name = spec["name"]
        self.is_builtin = is_builtin

    @cached_property
    def group(self) -> FiniteGroup:
        degree = int(self.spec["degree"])
        gens = [parse_cycles(g, degree) for g in self.spec["generators"]]
        group = FiniteGroup(gens, degree=degree)
        want = self.spec.get("order")
        if want is not None and group.order != want:
            raise InputError(
                f"group {self.name} enumerates to order {group.order}, "
                f"spec says {want}")
        return group

    @cached_property
    def class_set(self) -> ClassSet:
        return ClassSet(self.group)

    @cached_property
    def canonical_table(self) -> CharacterTable:
        return compute_character_table(self.group, self.class_set,
                                       name=self.name)

    @cached_property
    def _reporting_parts(self):
        """(reporting table, reference match or None, adopted flag)."""
        table = self.canonical_table
        if not (self.is_builtin and self.name in datasets.BUILTIN_GROUP_NAMES):
            return table, None, False
        reference = datasets.transcription_table(self.name)
        match = match_columns(table, reference)
        if match.level == "positional":
            return table, match, False
        return (table.reordered_rows(list(match.row_map),
                                     labels=list(reference.characters)),
                match, True)

    @property
    def table(self) -> CharacterTable:
        """The table used for all reporting: published row order for the
        embedded groups, canonical otherwise."""
        return self._reporting_parts[0]

    @property
    def reference_match(self) -> MatchResult | None:
        """Match of the computed table against the embedded reference
        transcription; None for groups without one."""
        return self._reporting_parts[1]

    @property
    def published_order_adopted(self) -> bool:
        return self._reporting_parts[2]

    @cached_property
    def permchar(self) -> ClassFunction:
        return permutation_character(self.group, self.class_set, self.table)

    @cached_property
    def family(self) -> str | None:
        """Closed-form family name, only for the embedded groups and only
        once the published coefficients equal the permutation character's,
        which confirms the published row alignment."""
        if not (self.is_builtin and self.name in datasets.CLOSED_FORMS
                and self.published_order_adopted):
            return None
        check_closed_forms(self.permchar, self.name)
        return self.name

    @cached_property
    def transition(self) -> list[list[int]]:
        return transition_matrix(self.permchar, self.table)

    def diag_variant_notes(self) -> list[str]:
        """Which printed fixed-point diagonal variant agrees with the
        derived one, in the reference table's column order."""
        match = self.reference_match
        if match is None or self.name not in datasets.TABLE_PRINTED_DIAG:
            return []
        reference = datasets.transcription_table(self.name)
        fixed = self.class_set.fixed_points
        derived = [fixed[match.col_map[b]] for b in range(reference.size)]
        notes = []
        for variant, printed in sorted(
                datasets.TABLE_PRINTED_DIAG[self.name].items()):
            if printed == derived:
                notes.append(f"printed diagonal variant {variant} matches "
                             "the derived fixed-point diagonal")
            else:
                bad = [reference.classes[b].label
                       for b in range(reference.size) if printed[b] != derived[b]]
                notes.append(f"printed diagonal variant {variant} differs "
                             f"from the derived fixed-point diagonal at "
                             f"columns {', '.join(bad)}")
        return notes


@lru_cache(maxsize=None)
def builtin_analysis(name: str) -> GroupAnalysis:
    return GroupAnalysis(datasets.builtin_group(name), is_builtin=True)


def analysis_from_file(path: str) -> GroupAnalysis:
    return GroupAnalysis(datasets.load_group_file(path), is_builtin=False)
