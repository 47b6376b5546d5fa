"""Why removing a prototype can raise the geometric mean.

A 1-NN reference set partitions space into Voronoi cells.  Removing one
prototype hands its cell to its facet neighbours (cell inclusion: everything
outside the cell is untouched), so the only rate changes are a *loss* of
correct mass from the removed point's class and a *gain* where neighbours of
the opposite class take over.  Whenever the product of the class rates goes
up, GM goes up.

This script builds a 1D example with a stranded minority prototype deep in
majority territory, runs the Monte Carlo gain/loss analysis, verifies the
prediction by re-estimating GM without the point, and then sanity-checks
cell inclusion on random configurations.

Run:  python3 demos/04_removal_analysis.py
"""

import numpy as np

from gmsel.theory import (
    asymptotic_gm,
    example_uniform_model,
    lemma_sweep,
    removal_analysis,
    voronoi_neighbors,
)


def main():
    model = example_uniform_model()
    points = np.array([[2.5], [9.5], [7.5]])
    labels = np.array([1, 1, 0])

    print("reference set: + at 2.5 and 9.5, - at 7.5")
    print("the + at 9.5 is stranded deep in the negative support\n")

    print(f"facet neighbours of the stranded point: "
          f"{sorted(voronoi_neighbors(points, 1))}")

    res = removal_analysis(points, labels, 1, model, sample_count=40_000, seed=2)
    print(f"gain (negative mass recovered): {res.gain:.4f}")
    print(f"loss (positive mass sacrificed): {res.loss:.4f}")
    print(f"rates before: TPR {res.tpr_before:.4f}, TNR {res.tnr_before:.4f}")
    print(f"rates after : TPR {res.tpr_after:.4f}, TNR {res.tnr_after:.4f}")
    print(f"rate-product margin: {res.margin:.4f} "
          f"(+- {res.margin_se:.4f}) -> improvement "
          f"{'predicted' if res.predicted_improvement else 'not predicted'}")

    g_before, se_b = asymptotic_gm(points, labels, model, 40_000, seed=11)
    g_after, se_a = asymptotic_gm(points[[0, 2]], labels[[0, 2]], model,
                                  40_000, seed=12)
    print(f"\nindependent check: GM {g_before:.4f} -> {g_after:.4f} "
          f"after removal")

    print("\ncell-inclusion spot check on 20 random configurations:")
    total = lemma_sweep(20, 5000, 0)
    print(f"  {total} violations across 20 x 5,000 probes")


if __name__ == "__main__":
    main()
