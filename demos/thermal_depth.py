"""How much thermal noise kills each nonclassicality witness.

Three witnesses, three thresholds.  For Fock states the Wigner function at
the origin survives up to nbar = 0.5 independent of n, the sub-Poissonian
Fano factor dies earlier, at sqrt(n^2 + n) - n, and distillable squeezing
dies earlier still, converging to about 0.28 as n grows.
"""

from subplanck import (
    DistillConfig,
    StateSpec,
    fano_depth,
    subplanck_depth,
    wigner_negativity_depth,
)


def main() -> None:
    print(f"{'n':>3} {'squeezing':>10} {'wigner':>8} {'fano':>8}")
    for n in (1, 2, 4, 6, 10):
        sq = subplanck_depth(StateSpec(kind="fock", n=n), asymptotic=True)
        wg = wigner_negativity_depth(n)
        fn = fano_depth(n)
        print(f"{n:>3} {sq.nbar_star:>10.4f} {wg.nbar_star:>8.4f} {fn.nbar_star:>8.4f}")
    print()
    sq = subplanck_depth(StateSpec(kind="fock", n=1), asymptotic=True)
    print(f"Fock 1 squeezing depth: nbar* = {sq.nbar_star:.5f} "
          f"(bracket [{sq.bracket[0]:.5f}, {sq.bracket[1]:.5f}], "
          f"{sq.iterations} bisection steps, witness '{sq.witness}')")

    # the pipeline witness at finite N crosses slightly above the asymptotic one
    fin = subplanck_depth(StateSpec(kind="fock", n=1), DistillConfig(layers=4))
    print(f"Fock 1 at N=4 layers:   nbar* = {fin.nbar_star:.5f} (witness '{fin.witness}')")


if __name__ == "__main__":
    main()
