"""Periodic shogi patterns: neighborhood control and frieze symmetry."""

from .geometry import Vec, reduce_cell
from .pieces import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK, SILVER,
                     STANDARD_KINDS, Moveset, Orientation, PieceKind,
                     UnknownKindError, moveset)
from .pattern import (Form, InconsistentMotifError, ParseError, PatternError,
                      PeriodicPattern, PlacedPiece, canonicalize, dual,
                      form_of, make_pattern, parse, serialize)
from .control import (FreeLine, NccStatus, PeriodicCellSet, RegionClass,
                      Segment, Verdict, control_of_pattern, neighborhood,
                      ncc_status, partition_neighborhood)
from .symmetry import (FriezeGroup, Isometry, IsometryKind, SymmetryFlags,
                       apply, classify_frieze, detect_symmetries,
                       generate_from_recipe, group_of)
from .search import (EXPECTED_TABLE, KIND_COLUMNS, ROW_ORDER, CrystalReport,
                     DualityExhibits, SearchBounds, SpecialFormReport,
                     find_crystal, find_duality, find_special_form,
                     fragility_check, ncc_vector, satisfies_table,
                     staircase_target)

__all__ = [name for name in dir() if not name.startswith("_")]
