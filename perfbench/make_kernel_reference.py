"""Regenerate kernel_reference.json: reduced Groebner bases computed by sympy.

The digests are the expected answers of the kernel-ideals workload.  They
come from an implementation independent of strictsmooth, so the benchmark
never compares the kernel against its own output.  Run from the root of
the checkout:

    python3 perfbench/make_kernel_reference.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import HERE, KERNEL_FAMILIES, KERNEL_FIELDS, basis_digest  # noqa: E402


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def sympy_digest(names, eqs, p: int) -> str:
    gens = sympy.symbols(names)
    polys = [sympy.sympify(e.replace("^", "**"), locals=dict(zip(names, gens))) for e in eqs]
    options = {"modulus": p} if p else {"domain": sympy.QQ}
    basis = sympy.groebner(polys, *gens, order="grevlex", **options)
    out = []
    for g in basis.polys:
        # sympy scales each element freely; the reduced basis is made monic
        # with respect to grevlex here (Poly.monic would use lex).
        if p:
            inverse = pow(int(g.LC(order="grevlex")) % p, -1, p)
            terms = [(e, int(c) * inverse % p) for e, c in g.terms()]
        else:
            lc = _fraction(g.LC(order="grevlex"))
            terms = [(e, _fraction(c) / lc) for e, c in g.terms()]
        out.append(terms)
    return basis_digest(out, p)


def main():
    digests = {}
    for family, (names, eqs) in KERNEL_FAMILIES.items():
        for label, p in KERNEL_FIELDS.items():
            digests[f"{family}-{label}"] = sympy_digest(names, eqs, p)
    doc = {"generator": f"sympy {sympy.__version__}, order grevlex", "digests": digests}
    (HERE / "kernel_reference.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
