#!/usr/bin/env python3
"""The §4 interface-design recipe, executed.

Walks the paper's four steps on its own use cases:

1. enumerate the §2 scenarios;
2. (implicitly) posit the global controller that could solve them;
3. map knobs and data to owners -> derive the WIDE interface (every
   datum that must cross a provider boundary);
4. score the data by measured relevance and NARROW to a budget.

Run:  python examples/interface_design_recipe.py
"""

import random

from repro.core.recipe import (
    derive_wide_interface,
    eona_use_cases,
    narrow_interface,
    utility_from_observations,
)


def main() -> None:
    use_cases = eona_use_cases()

    print("step 1 — use cases (paper §2):")
    for use_case in use_cases:
        knobs = ", ".join(knob.name for knob in use_case.knobs)
        data = ", ".join(datum.name for datum in use_case.data)
        print(f"  {use_case.name:16} knobs: {knobs}")
        print(f"  {'':16} data:  {data}")

    print("\nstep 3 — the WIDE interface (every cross-owner crossing):")
    wide = derive_wide_interface(use_cases)
    for datum_name, recipient in sorted(wide.shared_fields):
        print(f"  share {datum_name!r:22} -> {recipient}")
    print(f"  ({wide.width} distinct shared fields)")

    # Step 4 input: utility scores.  A deployment would measure these;
    # here we synthesize observation series whose correlation with a
    # quality signal encodes the paper's qualitative ranking.
    rng = random.Random(0)
    n = 200
    quality = [rng.random() for _ in range(n)]

    def correlated(strength: float):
        return [
            strength * q + (1 - strength) * rng.random() for q in quality
        ]

    observations = {
        "qoe": correlated(0.95),
        "demand_estimate": correlated(0.9),
        "access_congestion": correlated(0.8),
        "peering_capacity": correlated(0.6),
        "peering_decision": correlated(0.5),
        "server_hints": correlated(0.4),
        "server_load": correlated(0.2),
    }
    utility = utility_from_observations(observations, quality)
    print("\nstep 4 — measured utility (|rank correlation| with quality):")
    for name, score in sorted(utility.items(), key=lambda kv: -kv[1]):
        print(f"  {name:20} {score:.3f}")

    for budget in (2, 4):
        narrowed = narrow_interface(wide, utility, budget=budget)
        fields = sorted({name for name, _ in narrowed.shared_fields})
        print(f"\nnarrowed to budget {budget}: {', '.join(fields)}")

    print(
        "\nExperiment E9 runs these narrowed interfaces against the global-"
        "\ncontroller oracle; see EXPERIMENTS.md for the measured gap."
    )


if __name__ == "__main__":
    main()
