#!/usr/bin/env python3
"""Print one sha256 over the exact bytes of a fixed battery of densities.

    python3 scripts/digest.py

The battery covers what a refactor of how densities are built or read must
keep bit for bit:

- ``realize`` (``x_min``, ``x_step``, ``log_p``, ``norm_log``) for every kind
  and supported angle, with and without thermal blur, on the default grid and
  on 4999- and 513-node grids of the same extent;
- ``nonuniversal_layer`` and ``binary_sequence_distill`` (1-4 layers) at
  xbar 0, 0.4, -1.3 and 5;
- ``log_interp`` on increasing, decreasing, out-of-grid, scattered and
  scalar queries;
- ``global_maxima`` (``a``, ``value``, ``kappa`` of each) of every kind at 1
  and 16 copies, so a refactor of the peak fit can show it keeps the bytes;
- ``quantify(...).to_dict()`` at three pipeline configs;
- ``subplanck_depth(realize(...)).to_dict()`` of Fock 1, 4 and 10, of a tied
  symmetric mixture, a cat and a GKP comb with the asymptotic witness, and
  of Fock 1 with the 2-layer pipeline witness, so a change of the root
  finder or of its bracket shows.

An exception is recorded by its type only, so a reworded message does not
move the digest.  The package is imported from the ``src/`` next to this
script, so a ``git archive`` copy of another commit digests that commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from subplanck.density import GridSpec, global_maxima, log_interp, pow_scale  # noqa: E402
from subplanck.depth import subplanck_depth  # noqa: E402
from subplanck.distill import (  # noqa: E402
    DistillConfig,
    binary_sequence_distill,
    nonuniversal_layer,
    quantify,
)
from subplanck.errors import QuantifierError  # noqa: E402
from subplanck.states import StateSpec, default_grid, realize  # noqa: E402

HALF_PI = 0.5 * math.pi
GKP_SPACING = math.sqrt(math.pi / 2)

SPECS = [
    *(StateSpec("fock", n=n) for n in (0, 1, 4, 10)),
    StateSpec("fock", n=3, quadrature_angle=0.7),
    StateSpec("fock", n=2, quadrature_angle=HALF_PI),
    StateSpec("mixture", populations=(0.2, 0.0, 0.5, 0.3)),
    StateSpec("mixture", populations=(0.6, 0.4), quadrature_angle=HALF_PI),
    StateSpec("mixture", populations=(0.0, 1.0)),
    *(StateSpec("cat", alpha=a, quadrature_angle=q) for a in (1.0, 2.5) for q in (0.0, HALF_PI)),
    *(StateSpec("gkp", delta=0.3, side_peaks=2, spacing=GKP_SPACING, quadrature_angle=q)
      for q in (0.0, HALF_PI)),
    *(StateSpec("cubic", gamma=g, quadrature_angle=q)
      for g in (0.3, -0.3, -1.1) for q in (0.0, HALF_PI)),
    StateSpec("cat", alpha=1.0, quadrature_angle=0.3),
]
LAYER_INPUTS = [
    StateSpec("fock", n=3),
    StateSpec("fock", n=1, thermal_nbar=0.1),
    StateSpec("cat", alpha=2.0),
    StateSpec("gkp", delta=0.3, side_peaks=1, spacing=GKP_SPACING),
    StateSpec("cubic", gamma=0.2),
]
# a symmetric Fock mixture whose centre maximum ties with its side peaks
# near its asymptotic depth
TIED_MIXTURE = (
    0.17436676865208306,
    0.031711055833983134,
    0.00959145310539289,
    0.10852600113057333,
    0.6758047212779676,
)
DEPTHS = [
    *((StateSpec("fock", n=n), None) for n in (1, 4, 10)),
    (StateSpec("mixture", populations=TIED_MIXTURE), None),
    (StateSpec("cat", alpha=2.0), None),
    (StateSpec("gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi)), None),
    (StateSpec("fock", n=1), DistillConfig(layers=2)),
]
CONFIGS = [
    DistillConfig(),
    DistillConfig(layers=2, conditioning_xbar=0.4),
    DistillConfig(layers=3, nonuniversal_prelayers=1, prelayer_xbar=0.3),
]


class Digest:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.records = 0
        self.raised = 0

    def record(self, label: str, thunk) -> None:
        """Hash ``label`` and the bytes of ``thunk()``, or its exception type."""
        try:
            value = thunk()
        except (QuantifierError, ValueError) as exc:
            payload = b"raised " + type(exc).__name__.encode()
            self.raised += 1
        else:
            payload = encode(value)
        self.sha.update(label.encode() + b"\0" + payload + b"\0")
        self.records += 1


def encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return str(value.shape).encode() + value.tobytes()
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True).encode()
    # a GridDensity
    return struct.pack("<3d", value.x_min, value.x_step, value.norm_log) + value.log_p.tobytes()


def maxima(spec: StateSpec, copies: int) -> np.ndarray:
    """``(a, value, kappa)`` of each global maximum of ``copies`` copies of ``spec``."""
    found = global_maxima(pow_scale(realize(spec), copies))
    return np.array([(m.a, m.value, m.kappa) for m in found])


def battery() -> Digest:
    digest = Digest()
    for spec in SPECS:
        for nbar in (0.0, 0.2):
            thermal = replace(spec, thermal_nbar=nbar)
            extent = default_grid(thermal).extent
            for grid in (None, GridSpec(extent, 4999), GridSpec(extent, 513)):
                digest.record(f"realize {thermal} {grid}", lambda: realize(thermal, grid))
        for copies in (1, 16):
            digest.record(f"global_maxima {spec} {copies}", lambda: maxima(spec, copies))
    digest.record("narrow fock", lambda: realize(StateSpec("fock", n=4), GridSpec(5.0)))
    narrow_mixture = StateSpec("mixture", populations=(0.5, 0.0, 0.5))
    digest.record("narrow mixture", lambda: realize(narrow_mixture, GridSpec(5.0)))
    for spec in LAYER_INPUTS:
        p = realize(spec)
        for xbar in (0.0, 0.4, -1.3, 5.0):
            digest.record(f"nonuniversal {spec} {xbar}", lambda: nonuniversal_layer(p, xbar))
            for layers in range(1, 5):
                digest.record(
                    f"sequence {spec} {layers} {xbar}",
                    lambda: binary_sequence_distill(p, layers, xbar),
                )
        span = np.linspace(p.x_min - 1.5, p.x_max + 1.5, 3003)
        for name, xq in (
            ("increasing", np.linspace(p.x_min, p.x_max, 2999)),
            ("decreasing", np.linspace(p.x_max, p.x_min, 2999)),
            ("out of grid", span),
            ("out of grid reversed", span[::-1].copy()),
            ("nodes", p.xs()),
            ("scalar", 0.3),
            ("scattered", np.random.default_rng(7).permutation(span).reshape(3, -1)),
        ):
            digest.record(f"log_interp {spec} {name}", lambda: log_interp(p, xq))
        for cfg in CONFIGS:
            digest.record(f"quantify {spec} {cfg}", lambda: quantify(p, cfg).to_dict())
    for spec, cfg in DEPTHS:
        digest.record(
            f"depth {spec} {cfg}",
            lambda: subplanck_depth(realize(spec), cfg, asymptotic=cfg is None).to_dict(),
        )
    return digest


def main() -> int:
    digest = battery()
    print(digest.sha.hexdigest())
    print(f"{digest.records} records, {digest.raised} raised", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
