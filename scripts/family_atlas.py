#!/usr/bin/env python3
"""Print every named family construction on a given vertex count, grouped by
isomorphism class, with surface type and automorphism group order.

Example:
    python3 scripts/family_atlas.py 12
"""

import argparse
import sys

from flatland import automorphism_group, known_catalog, surface_type


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="vertex count")
    args = ap.parse_args()

    try:
        catalog = known_catalog(args.n)
    except ValueError as exc:  # n < 1, or a member over the family vertex cap
        ap.error(str(exc))

    aut = {}  # one scan per distinct complex: T_{n,1,k} and T_{n,1,n-1-k} share one
    by_code: dict[tuple, list] = {}
    for named in catalog:
        if named.complex not in aut:
            aut[named.complex] = automorphism_group(named.complex)
        by_code.setdefault(aut[named.complex].canonical.code, []).append(named)

    if not by_code:
        print(f"no named families on {args.n} vertices")
        return 0

    for i, code in enumerate(sorted(by_code)):
        group = by_code[code]
        t = group[0].complex
        names = ", ".join(g.name for g in group)  # catalog order, as `classify` prints
        print(f"class {i}: {surface_type(t)}, |Aut| = {aut[t].order}")
        print(f"  {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
