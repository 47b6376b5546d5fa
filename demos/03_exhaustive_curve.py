"""Best asymptotic GM per reference-set cardinality, by exhaustive search.

On a recorded 15-point sample (5 minority, 10 majority) from the imbalanced
Gaussian-mixture model, every one of the 2^15 subsets is scored by Monte
Carlo asymptotic GM under common random numbers.  Two things show up:

* the global best is a *proper* subset — keeping everything hurts; and
* the best-GM-per-cardinality curve is non-monotonic, so greedy growing or
  pruning of the reference set can get stuck.

Pass --research to re-run the rejection-sampling search that found the
recorded draw seed (about 0.6 s; prints the seed so it can be pinned).

Run:  python3 demos/03_exhaustive_curve.py          (about 0.3 s on 2 cores
      with OPENBLAS_NUM_THREADS=1; the search itself takes about 0.02 s)
"""

import argparse
import csv

from gmsel.theory import (
    example_mixture_model,
    exhaustive_search,
    nonmonotone_example,
    search_nonmonotone_pointset,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--research", action="store_true",
                    help="re-run the search for a qualifying point set")
    ap.add_argument("--seed", type=int, default=7, help="search seed")
    args = ap.parse_args()

    if args.research:
        pts, labels, draw_seed = search_nonmonotone_pointset(args.seed)
        print(f"qualifying draw seed: {draw_seed}")
    else:
        pts, labels, _ = nonmonotone_example()

    model = example_mixture_model()
    per_card, (best, best_gm) = exhaustive_search(pts, labels, model,
                                                  sample_count=2000, seed=0)
    curve = [(k, per_card[k][1]) for k in sorted(per_card)]
    full_gm = per_card[len(labels)][1]

    print("cardinality  best GM")
    prev = None
    for k, g in curve:
        marker = "  <- dip" if prev is not None and g < prev else ""
        print(f"{k:11d}  {g:.4f}{marker}")
        prev = g
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
