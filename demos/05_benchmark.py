"""Small end-to-end benchmark: selection methods vs plain 1-NN.

Builds ten synthetic imbalanced Gaussian datasets (imbalance ratios 5-30),
runs 5x2 stratified cross-validation for a roster of methods, and prints the
win table and pairwise sign-test report.  Every trial seed is derived by
hashing (master seed, dataset, repetition, fold, method), so the records CSV
is byte-identical at any parallelism degree.

Run:  python3 demos/05_benchmark.py          (about 3 s)

For real KEEL .dat or CSV files, use the CLI instead:
    gmsel run --config experiment.yaml --out results/
    gmsel report --records results/records.csv
"""

from gmsel.bench import (
    ExperimentConfig,
    make_synthetic_dataset,
    report,
    run_experiment,
)


def main():
    irs = [5, 7, 9, 12, 15, 18, 21, 24, 27, 30]
    datasets = [
        make_synthetic_dataset(f"gauss-ir{ir:02d}", n_pos=25,
                               imbalance_ratio=ir, seed=100 + i)
        for i, ir in enumerate(irs)
    ]
    cfg = ExperimentConfig(
        methods=("1nn", "rus", "ncl", "tl", "oss", "rusboost"),
        repetitions=5,
        master_seed=0,
        jobs=2,
        out_dir="benchmark_out",
    )
    records = run_experiment(cfg, datasets=datasets)
    failed = sum(r.failed for r in records)
    print(f"{len(records)} trials, {failed} failed; "
          "records in benchmark_out/records.csv\n")
    print(report(records)["markdown"])


if __name__ == "__main__":
    main()
