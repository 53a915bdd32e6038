"""Combinatorial ledger for the derived-category structure of the blow-up.

Everything here is index bookkeeping: which Lefschetz blocks each
exceptional divisor carries, which twisted blocks enter the semiorthogonal
decomposition of the blown-up hypersurface, and which pushforward-vanishing
range is invoked.  No derived categories are modelled; the hypotheses
(vanishing order strictly below the codimension) are validated and the
block chains are enumerated with their exact twist ranges.

A center is given as (name, d, k): its name, codimension and vanishing
order.  Each function returns its section of the report as plain data; a
ledger whose hypothesis fails says so with `applicable` False and a reason.
"""

from __future__ import annotations


def lefschetz(name: str, d: int, k: int) -> dict:
    """Lefschetz and dual Lefschetz blocks of one exceptional divisor.

    Applicable when k < d; then there are d - k blocks with twists
    0, 1, ..., d - k - 1 (block 0 is the orthogonal complement of the rest)
    and d - k dual blocks with twists 0, -1, ..., 1 + k - d.
    """
    if k >= d:
        return {
            "center": name,
            "applicable": False,
            "reason": f"vanishing order k={k} is not strictly below the codimension d={d}",
        }
    kinds = ["orthogonal-complement"] + ["pullback"] * (d - k - 1)
    blocks, duals = (
        [{"index": l, "kind": kind, "twist": sign * l} for l, kind in enumerate(kinds)]
        for sign in (1, -1)
    )
    return {"center": name, "applicable": True, "blocks": blocks, "dual_blocks": duals}


def sod(shapes) -> dict:
    """Ordered semiorthogonal block list over all (name, d, k) centers.

    Per center the twisted blocks run through the twists strictly between
    k - d and 0, in ascending order; centers keep their input order (the
    order is immaterial mathematically, fixed here for reproducibility).
    The residual weakly crepant block comes last.  Not applicable when
    some center has k >= d.
    """
    offenders = [(name, d, k) for name, d, k in shapes if k >= d]
    if offenders:
        names = ", ".join(f"{name} (k={k}, d={d})" for name, d, k in offenders)
        return {
            "applicable": False,
            "reason": "the semiorthogonal decomposition requires the vanishing order to be "
            f"strictly below the codimension at every center; offenders: {names}",
        }
    blocks = [
        {"center": name, "twist": twist}
        for name, d, k in shapes
        for twist in range(k - d + 1, 0)
    ]
    blocks.append({"residual": True, "weakly_crepant": True})
    return {"applicable": True, "twist_order": "ascending", "blocks": blocks}


def serre_vanishing_record(name: str, d: int) -> dict:
    """The pushforward-vanishing twist range (-d, 0), both ends exclusive."""
    return {"center": name, "open_range": [-d, 0], "twists": list(range(1 - d, 0))}
