"""Best asymptotic GM per reference-set cardinality, by exhaustive search.

On a recorded 15-point sample (5 minority, 10 majority) from the imbalanced
Gaussian-mixture model, every one of the 2^15 subsets is scored by Monte
Carlo asymptotic GM under common random numbers.  Two things show up:

* the global best is a *proper* subset: at 100,000 or more probes per class
  the best 4- or 5-point subset beats the full set by about 0.06; and
* the best-GM-per-cardinality curve is not monotone: it rises to that peak
  at k = 4-5 and then falls to the full set, so adding instances past the
  peak only lowers GM.

At the 2,000 probes per class used here the curve also wiggles by about
±0.004 past the peak; those wiggles are probe noise and vanish at 100,000
probes.

Run:  python3 demos/03_exhaustive_curve.py          (about 0.3 s on 2 cores
      with OPENBLAS_NUM_THREADS=1; the search itself takes about 0.02 s)
"""

import csv

from gmsel.theory import exhaustive_search, nonmonotone_example


def main():
    pts, labels, model = nonmonotone_example()
    per_card, (best, best_gm) = exhaustive_search(pts, labels, model,
                                                  sample_count=2000, seed=0)
    curve = [(k, per_card[k][1]) for k in sorted(per_card)]
    full_gm = per_card[len(labels)][1]

    print("cardinality  best GM")
    for k, g in curve:
        print(f"{k:11d}  {g:.4f}")
    print(f"\nfull set GM = {full_gm:.4f}")
    print(f"global best = {best_gm:.4f} at cardinality {len(best)} "
          f"(subset {sorted(best.tolist())})")

    with open("exhaustive_curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cardinality", "best_gm"])
        w.writerows(curve)
    print("wrote exhaustive_curve.csv")


if __name__ == "__main__":
    main()
