"""Combinatorial ledger for the derived-category structure of the blow-up.

Everything here is index bookkeeping: which Lefschetz blocks each
exceptional divisor carries, which twisted blocks enter the semiorthogonal
decomposition of the blown-up hypersurface, and which pushforward-vanishing
range is invoked.  No derived categories are modelled; the hypotheses
(vanishing order strictly below the codimension) are validated and the
block chains are enumerated with their exact twist ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import StrictSmoothError


@dataclass(frozen=True)
class CenterShape:
    """The (codimension, vanishing order) data of one analyzed center."""

    name: str
    codimension: int
    multiplicity: int


@dataclass(frozen=True)
class LefschetzBlock:
    """One block of the Lefschetz chain (twist l) or its dual (twist -l)."""

    center: str
    index: int
    kind: str        # "pullback" or "orthogonal-complement"
    twist: int


@dataclass(frozen=True)
class LefschetzResult:
    applicable: bool
    reason: str
    blocks: tuple
    dual_blocks: tuple


@dataclass(frozen=True)
class SodBlock:
    """One block of the semiorthogonal decomposition.

    Twisted blocks carry a center and a strictly negative twist; the single
    residual block closes the list and is the weakly crepant piece.
    """

    center: Optional[str] = None
    twist: Optional[int] = None
    residual: bool = False
    weakly_crepant: bool = False


@dataclass(frozen=True)
class SerreVanishingRecord:
    """Twist range (-d, 0), both ends exclusive, invoked for one center."""

    center: str
    lower: int
    upper: int
    twists: tuple


class SodApplicabilityError(StrictSmoothError):
    def __init__(self, offenders: Sequence[CenterShape]):
        self.offenders = tuple(offenders)
        names = ", ".join(
            f"{s.name} (k={s.multiplicity}, d={s.codimension})" for s in self.offenders
        )
        super().__init__(
            "the semiorthogonal decomposition requires the vanishing order to be "
            f"strictly below the codimension at every center; offenders: {names}"
        )


def lefschetz(shape: CenterShape) -> LefschetzResult:
    """Lefschetz and dual Lefschetz blocks of one exceptional divisor.

    Applicable when k < d; then there are d - k blocks with twists
    0, 1, ..., d - k - 1 (block 0 is the orthogonal complement of the rest)
    and d - k dual blocks with twists 0, -1, ..., 1 + k - d.
    """
    d, k = shape.codimension, shape.multiplicity
    if k >= d:
        return LefschetzResult(
            applicable=False,
            reason=(
                f"vanishing order k={k} is not strictly below the codimension d={d}"
            ),
            blocks=(),
            dual_blocks=(),
        )
    kinds = ["orthogonal-complement"] + ["pullback"] * (d - k - 1)
    blocks, duals = (
        tuple(LefschetzBlock(shape.name, l, kind, sign * l) for l, kind in enumerate(kinds))
        for sign in (1, -1)
    )
    return LefschetzResult(True, "", blocks, duals)


def sod(shapes: Sequence[CenterShape]) -> tuple:
    """Ordered semiorthogonal block list over all centers.

    Per center the twisted blocks run through the twists strictly between
    k - d and 0, in ascending order; centers keep their input order (the
    order is immaterial mathematically, fixed here for reproducibility).
    The residual weakly crepant block comes last.  Raises
    SodApplicabilityError when some center has k >= d.
    """
    offenders = [s for s in shapes if s.multiplicity >= s.codimension]
    if offenders:
        raise SodApplicabilityError(offenders)
    blocks = []
    for shape in shapes:
        low = shape.multiplicity - shape.codimension
        for twist in range(low + 1, 0):
            blocks.append(SodBlock(center=shape.name, twist=twist))
    blocks.append(SodBlock(residual=True, weakly_crepant=True))
    return tuple(blocks)


def serre_vanishing_record(shape: CenterShape) -> SerreVanishingRecord:
    """The pushforward-vanishing twist range for one exceptional bundle."""
    d = shape.codimension
    return SerreVanishingRecord(
        center=shape.name,
        lower=-d,
        upper=0,
        twists=tuple(range(1 - d, 0)),
    )
