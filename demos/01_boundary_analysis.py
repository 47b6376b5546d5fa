"""Exact 1D split-point analysis on the overlapping-uniforms model.

The positive class is uniform on [0, 9] and the negative on [3, 10].  Accuracy
is maximised by splitting where the prior-weighted densities cross (b = 3),
but the geometric mean of the class rates keeps improving past that point:
sacrificing some negatives buys proportionally more positives.  This script
sweeps the split point, prints the exact GM at the crossover and at the GM
optimum, and writes a plot-ready CSV of the whole curve.

Run:  python3 demos/01_boundary_analysis.py
"""

import csv
import math

from gmsel.theory import (
    best_boundary_1d,
    example_uniform_model,
    gm_boundary_1d,
    sweep_boundary_1d,
)


def main():
    model = example_uniform_model()

    print("split b   TPR     TNR     GM")
    for b, tpr, tnr, g in sweep_boundary_1d(model, 21):
        print(f"{b:6.1f}  {tpr:.4f}  {tnr:.4f}  {g:.4f}")

    tpr3, tnr3, gm3 = gm_boundary_1d(model, 3)
    print(f"\nat the density crossover b=3: GM = {gm3:.6f} "
          f"(exactly sqrt(1/3) = {math.sqrt(1 / 3):.6f})")

    b_star, gm_star = best_boundary_1d(model)
    print(f"GM-optimal split: b* = {b_star}, GM* = {gm_star:.6f} "
          f"(exactly sqrt(25/63))")

    with open("boundary_curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["b", "tpr", "tnr", "gm"])
        for b, tpr, tnr, g in sweep_boundary_1d(model, 501):
            w.writerow([f"{b:.3f}", f"{tpr:.6f}", f"{tnr:.6f}", f"{g:.6f}"])
    print("wrote boundary_curve.csv (501 rows)")


if __name__ == "__main__":
    main()
