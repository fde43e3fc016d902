"""The B_n ladder: the n-cube {4,3,...,3} for n = 3, 4, 5 through the
generic engine of polytope_forge.

Each rung builds the n Coxeter reflections of B_n as signed permutations,
conjugated by one signed permutation drawn from the seed, then runs

    ConcreteGroup.generate -> polytope_from_reflections -> classify
    (on the coset_face_action maps of the generators) -> enumerate_cosets
    (trivial subgroup of the presentation [4,3,...,3]).

It prints one JSON object with the invariants of every rung.  The caller
checks them against closed forms; the outputs do not depend on the seed.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 perfbench/ladder.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys

RUNGS = (3, 4, 5)


def reflections(n: int):
    """rho_0 negates coordinate 1, rho_i swaps coordinates i and i+1."""
    from polytope_forge.signedperm import SignedPerm

    rho0 = SignedPerm((-1,) + (1,) * (n - 1), range(1, n + 1))
    swaps = [SignedPerm.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]
    return [rho0] + swaps


def coxeter_presentation(n: int):
    """Involutory generators with (r0 r1)^4, (r_i r_{i+1})^3, (r_i r_j)^2."""
    from polytope_forge.groupcore import Presentation

    relators = [(i, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = (4 if i == 1 else 3) if j == i + 1 else 2
            relators.append((i, j) * m)
    return Presentation(n, tuple(relators))


def conjugator(n: int, rng: random.Random):
    from polytope_forge.signedperm import SignedPerm

    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return SignedPerm([rng.choice((1, -1)) for _ in range(n)], perm)


def rung(n: int, rng: random.Random) -> dict:
    from polytope_forge.groupcore import ConcreteGroup, enumerate_cosets
    from polytope_forge.polycore import (classify, coset_face_action,
                                         polytope_from_reflections)

    h = conjugator(n, rng)
    gens = [r.conjugate(h) for r in reflections(n)]
    group = ConcreteGroup.generate(gens, names=[f"r{i}" for i in range(n)])
    poly = polytope_from_reflections(group)
    result = classify(poly, [coset_face_action(poly, g) for g in gens])
    table = enumerate_cosets(coxeter_presentation(n), (), cap=10 * len(group))
    return {"n": n, "order": len(group), "f_vector": list(poly.f_vector),
            "coset_index": table.index, "flags": result.flag_count,
            "classification": result.kind.value}


def main(seed: int) -> dict:
    rng = random.Random(seed)
    return {"rungs": [rung(n, rng) for n in RUNGS]}


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.stdout.write(json.dumps(main(args.seed), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
