"""Classical Bayes vs balanced Bayes vs random instance editing.

On a heavily imbalanced 2D Gaussian-mixture problem (minority prior 1/9) the
prior-weighted Bayes rule is accuracy-optimal but GM-poor: it sacrifices the
minority class.  Dropping the priors (balanced Bayes) recovers most of the
gap, and a purely random search over 25-instance 1-NN reference sets —
scored by leave-one-out GM on the training sample — matches it without ever
seeing the densities.  Neither Bayes rule is GM-optimal in general.

Run:  python3 demos/02_bayes_vs_editing.py          (about 5 s)
"""

import numpy as np

from gmsel.theory import cb_bb_demo


def main():
    print("Per-seed GM on fresh 9,000-point test draws (no editing):")
    cbs, bbs = [], []
    for seed in range(5):
        out = cb_bb_demo(seed=seed, include_re=False)
        cbs.append(out["cb"])
        bbs.append(out["bb"])
        print(f"  seed {seed}: classical {out['cb']:.4f}   "
              f"balanced {out['bb']:.4f}")
    print(f"  means:  classical {np.mean(cbs):.4f}   balanced {np.mean(bbs):.4f}")

    print("\nAdding random editing (M=25 prototypes, 10,000 trials, "
          "4,500 training points)...")
    full = cb_bb_demo(seed=0, re_trials=10_000, include_re=True)
    print(f"  classical Bayes  GM = {full['cb']:.4f}")
    print(f"  balanced Bayes   GM = {full['bb']:.4f}")
    print(f"  random editing   GM = {full['re']:.4f}  "
          f"({len(full['re_refset'])} prototypes)")


if __name__ == "__main__":
    main()
