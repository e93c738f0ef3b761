"""Betweenness isomorphism classes of circles with interior points.

Exact rational machinery for the reversion group action on a circle:
word algebra with signatures and normal forms, exact plane geometry, the
cycle test behind the porism, classification of three collinear interior
points, isomorphism decisions with finite verified tables, and a CLI with
SVG output.
"""

from .action import Config, act, is_cycle, orbit
from .classify import (
    ClassLabel,
    CycleLabel,
    NoCycleUpTo,
    RealizationInterval,
    avoid_all_cycles,
    classify,
    realize_by_bisection,
    realize_by_closing,
    search_closing_config,
    validate_config,
)
from .geometry import (
    Circle,
    Point,
    UNIT_CIRCLE,
    is_between,
    reversion,
)
from .hull import collinear_hull, hull_isomorphism
from .iso import (
    ConditionallyIsomorphic,
    Isomorphic,
    IsoVerdict,
    NotIsomorphic,
    PartialIsoTable,
    build_partial_iso,
    decide_iso,
)
from .words import (
    Word,
    canonical_word,
    gcd_vec,
    is_balanced,
    normal_form,
    pi13,
    signature_of,
    word_from_signature,
)

__version__ = "0.1.0"
