"""Recover phonon populations from a noisy sideband Rabi trace.

Synthesizes the excited-state probability for a three-component number
mixture, adds Gaussian readout noise, and fits the populations back out.
The recovered distribution's Fano factor is the nonclassicality readout: a
value below 1 certifies sub-Poissonian statistics.
"""

import math

import numpy as np

from subplanck import RabiModel, fit_populations, phonon_stats, rabi_signal


def main() -> None:
    model = RabiModel(omega01=2 * math.pi * 0.05, gamma_decay=0.01, n_max=4)
    truth = np.array([0.0, 0.1, 0.8, 0.1, 0.0])
    times = np.linspace(0.0, 60.0, 240)
    rng = np.random.default_rng(42)
    trace = np.clip(rabi_signal(truth, model, times) + rng.normal(0.0, 0.01, times.size), 0.0, 1.0)

    fit = fit_populations(times, trace, model)
    pops = fit.distribution.populations
    print("true vs fitted populations:")
    for n, (t, f) in enumerate(zip(truth, pops)):
        print(f"  P_{n}: {t:.3f}  ->  {f:.3f}")
    print(f"residual norm {fit.residual_norm:.2e}, "
          f"condition number {fit.condition_number:.1f}")

    stats = fit.distribution
    print(f"mean phonon number {stats.mean:.3f}, variance {stats.variance:.3f}")
    print(f"Fano factor {stats.fano:.3f} (< 1 is sub-Poissonian), snr {stats.snr:.2f}")

    ideal = phonon_stats(truth)
    print(f"truth Fano factor {ideal.fano:.3f}")


if __name__ == "__main__":
    main()
