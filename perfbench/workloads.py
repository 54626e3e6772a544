"""Seeded workload generators.

Each generator turns the benchmark's ``--seed`` into the only input the
program sees: a scenario matrix for ``repro batch`` or traffic parameters
for ``repro simulate``.  The same seed always gives the same input.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

#: The six acyclic mesh routings of ``prove-mesh``.
PROVE_ROUTINGS = ("xy", "yx", "west-first", "north-last", "negative-first",
                  "odd-even")
#: Every routing token of the ``mesh`` kind (the fault fleet draws all).
MESH_ROUTINGS = PROVE_ROUTINGS + ("adaptive", "zigzag")
PROVE_MESH_SIZE = 5
PROVE_VCS = (2, 4)

#: ``(kind, dims, scenarios)`` cells of the fault fleet.  The cells are
#: fixed and the draws inside a cell balanced, so every seed asks for the
#: same amount of work of each size; the seed picks routings, VC counts,
#: fault counts and fault placements.  Larger faulty meshes and tori are
#: left out: a 4x4 or 5x5 scenario costs 0.01-0.6 s depending on where
#: its faults land, so the few a fleet can afford made its solver work
#: swing by a quarter (coefficient of variation 0.27 over 12 seeds with 8
#: 4x4 meshes; 0.10 without them).
FLEET_CELLS = (
    ("mesh", "3x3", 48),
    ("ring", "5", 6), ("ring", "6", 6), ("ring", "7", 6), ("ring", "8", 6),
    ("vc-torus", "3x3", 16),
    ("vc-ring", "5", 6), ("vc-ring", "6", 6), ("vc-ring", "7", 6),
    ("vc-ring", "8", 6),
)
RING_ROUTINGS = ("chain", "clockwise")
FLEET_VCS = (1, 2, 3)
#: A ring survives one dead link but not two, so rings draw one fault.
MESH_FAULTS = (1, 2)

EVACUATE = {"width": 8, "height": 8, "messages": 600, "flits": 4}


#: Matrices a run draws from its seed, one per CLI call in turn: one
#: fleet's work depends on where its faults land, and one submission
#: order's on the search it leads the solver into, so a run takes the
#: median over several.
MATRICES_PER_RUN = {"prove-mesh": 4, "fault-fleet": 4, "warm-rerun": 1}


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` seeds derived from ``seed``; the first is ``seed`` itself."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2 ** 31) for _ in range(count - 1)]


def balanced(rng: random.Random, values: Sequence, count: int) -> List:
    """``count`` draws that use every value equally often, in seeded order."""
    drawn: List = []
    while len(drawn) < count:
        block = list(values)
        rng.shuffle(block)
        drawn.extend(block)
    return drawn[:count]


def prove_mesh(seed: int) -> List[str]:
    """The healthy mesh group plus the VC mesh group, each in seeded order.

    The seed permutes the submission order inside each session group,
    which changes the incremental session's search but not its verdicts.
    """
    rng = random.Random(seed)
    size = f"{PROVE_MESH_SIZE}x{PROVE_MESH_SIZE}"
    mesh = [f"mesh:{size}, routing={routing}" for routing in PROVE_ROUTINGS]
    mesh.append(f"mesh:{size}, routing=xy, switching=vct")
    vc_mesh = [f"vc-mesh:{size}, vcs={vcs}" for vcs in PROVE_VCS]
    rng.shuffle(mesh)
    rng.shuffle(vc_mesh)
    return mesh + vc_mesh


def fault_fleet(seed: int) -> List[str]:
    """Small fault-injected scenarios, one matrix term each."""
    rng = random.Random(seed)
    terms: List[str] = []
    for kind, dims, count in FLEET_CELLS:
        if kind == "mesh":
            params = [f"routing={routing}"
                      for routing in balanced(rng, MESH_ROUTINGS, count)]
        elif kind == "ring":
            params = [f"routing={routing}"
                      for routing in balanced(rng, RING_ROUTINGS, count)]
        else:
            params = [f"vcs={vcs}" for vcs in balanced(rng, FLEET_VCS, count)]
        ring = kind.endswith("ring")
        faults = [1] * count if ring else balanced(rng, MESH_FAULTS, count)
        for param, fault_count in zip(params, faults):
            terms.append(f"{kind}:{dims}, {param}, faults={fault_count}, "
                         f"seed={rng.randrange(1000)}")
    return terms


def evacuate(seed: int) -> Dict[str, int]:
    """Uniform random traffic on an 8x8 HERMES mesh; the seed is the
    traffic seed."""
    return dict(EVACUATE, seed=seed)


BATCH_WORKLOADS = {"prove-mesh": prove_mesh, "fault-fleet": fault_fleet,
                   "warm-rerun": fault_fleet}
WORKLOADS = tuple(BATCH_WORKLOADS) + ("evacuate",)
