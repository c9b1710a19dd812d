"""Tour of the built-in state catalog.

Each entry is realized as a quadrature density on its default grid; the
script prints raw variance next to the asymptotic distillable variance.  The
contrast is the point: GKP and cat states have huge raw variance yet distill
far below the ground state, while a classical thermal mixture refuses to.
"""

import math

from subplanck import StateSpec, asymptotic_variance, global_maxima, realize, variance

CATALOG = [
    ("ground", StateSpec(kind="fock", n=0)),
    ("fock 1", StateSpec(kind="fock", n=1)),
    ("fock 4", StateSpec(kind="fock", n=4)),
    ("fock 1, nbar=0.2", StateSpec(kind="fock", n=1, thermal_nbar=0.2)),
    ("mixture (.2,.5,.3)", StateSpec(kind="mixture", populations=(0.2, 0.5, 0.3))),
    ("cat alpha=2", StateSpec(kind="cat", alpha=2.0)),
    ("gkp sqrt(pi)", StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi))),
    ("gkp sqrt(pi)/4", StateSpec(kind="gkp", delta=0.3, side_peaks=3, spacing=math.sqrt(math.pi) / 4)),
    ("cubic gamma=1", StateSpec(kind="cubic", gamma=1.0)),
]


def main() -> None:
    print(f"{'state':<20} {'raw var':>9} {'asym var':>9} {'maxima':>7}")
    for label, spec in CATALOG:
        p = realize(spec)
        tallest = len(global_maxima(p))
        print(
            f"{label:<20} {variance(p):>9.4f} {asymptotic_variance(p):>9.4f} "
            f"{tallest:>7}"
        )
    print()
    print("asym var < 0.5 signals distillable squeezing; the thermalized and")
    print("mixed entries stay at or above 0.5, as any classical density must.")


if __name__ == "__main__":
    main()
