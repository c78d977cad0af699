"""Crosscap numbers of 2-bridge knots from exact continued-fraction arithmetic.

The pipeline: a fraction p/q names the knot S(q,p); one pass over its
partial quotients forms a seed expansion and keeps it a fixpoint of a
three-rule rewrite system, whose fixpoints have the minimal expansion
length; the crosscap number, genus, boundary classification and a
crosscap-realizing Conway diagram are read off that reduced expansion.
`reduce_expansion` applies the same rules to any expansion and records
each step.  The Farey-diagram depth, computed apart from the rewrite
rules in `twobridge.oracles`, checks the minimal lengths, and the
bundled table of the 362 two-bridge knots through 12 crossings is
verified end to end.

This namespace holds the serving API; the rest lives in the submodules,
and the slow verification oracles in `twobridge.oracles`.
"""

from .conway import conway_diagram, verify_diagram
from .core import (
    Expansion,
    ExtendedRational,
    KnotId,
    eval_expansion,
    format_expansion,
    format_fraction,
    knot_from_fraction,
    parse_expansion,
    parse_fraction,
)
from .diagram import all_shortest_expansions, depth
from .errors import DomainError, ParseError, TwoBridgeError, UnknownNameError
from .invariants import (
    Boundary,
    InvariantReport,
    boundary_classification,
    crosscap,
    even_expansion,
    genus,
    invariant_report,
)
from .reduction import reduce_expansion
from .table import find_record, load_table, lookup, verify_table

__version__ = "0.1.0"
