"""Command-line access: run / report / theory / parse subcommands."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, theory
from .data import parse_csv, parse_keel


def _cmd_run(args):
    cfg = bench.ExperimentConfig.from_yaml(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    records = bench.run_experiment(cfg)
    failed = sum(r.failed for r in records)
    print(f"{len(records)} trials completed, {failed} failed")
    if cfg.out_dir:
        print(f"records written to {Path(cfg.out_dir) / 'records.csv'}")
    return 0


def _cmd_report(args):
    records = bench.read_records(args.records)
    rep = bench.report(records, alpha=args.alpha, bonferroni_m=args.bonferroni_m)
    print(rep["markdown"])
    return 0


def _cmd_parse(args):
    text = Path(args.file).read_text()
    try:
        if args.file.endswith(".csv"):
            ds = parse_csv(text, name=Path(args.file).stem)
        else:
            ds = parse_keel(text)
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"{ds.name}: {ds.n_instances} instances, "
          f"{sum(a.kind == 'numeric' for a in ds.schema)} numeric + "
          f"{sum(a.kind == 'nominal' for a in ds.schema)} nominal attributes, "
          f"positive class {ds.positive_label!r} ({ds.n_pos} instances), "
          f"IR {ds.imbalance_ratio:.2f}")
    return 0


def _write_curve(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def _cmd_theory_boundary1d(args):
    model = theory.model_from_config(args.model) if args.model else \
        theory.example_uniform_model()
    bs = np.linspace(args.lo, args.hi, args.steps)
    rows = []
    for b in bs:
        tpr_b, tnr_b, gm_b = theory.gm_boundary_1d(model, float(b))
        rows.append([float(b), tpr_b, tnr_b, gm_b])
    b_star, gm_star = theory.best_boundary_1d(model)
    print(f"best boundary b* = {b_star}, GM* = {gm_star:.6f}")
    if args.out:
        _write_curve(args.out, ["b", "tpr", "tnr", "gm"], rows)
    return 0


def _cmd_theory_demo(args):
    gms = theory.cb_bb_demo(seed=args.seed, re_trials=args.re_trials,
                            include_re=not args.no_re)
    print(f"GM(classical Bayes) = {gms['cb']:.4f}")
    print(f"GM(balanced Bayes)  = {gms['bb']:.4f}")
    if "re" in gms:
        print(f"GM(random editing)  = {gms['re']:.4f}")
    return 0


def _cmd_theory_exhaustive(args):
    points, labels, model = theory.nonmonotone_example()
    per_card, (best, best_gm) = theory.exhaustive_search(
        points, labels, model, sample_count=args.samples, seed=args.seed)
    full_gm = per_card[len(labels)][1]
    rows = [[k, per_card[k][1]] for k in sorted(per_card)]
    for k, g in rows:
        print(f"cardinality {k:2d}: best GM = {g:.4f}")
    print(f"full set GM = {full_gm:.4f}; global best GM = {best_gm:.4f} "
          f"at cardinality {len(best)}")
    if args.out:
        _write_curve(args.out, ["cardinality", "best_gm"], rows)
    return 0


def _cmd_theory_lemma(args):
    rng = np.random.default_rng(args.seed)
    total_violations = 0
    for c in range(args.configs):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(1, 5))
        points = rng.standard_normal((n, d))
        i = int(rng.integers(0, n))
        rep = theory.lemma_check(points, i, probe_count=args.probes,
                                 seed=int(rng.integers(0, 2**31)))
        total_violations += rep.inclusion_violations
    print(f"{args.configs} configurations x {args.probes} probes: "
          f"{total_violations} inclusion violations")
    return 0 if total_violations == 0 else 1


def _cmd_theory_prop1(args):
    confirmed, checked = theory.prop1_check(args.cases, args.samples, args.seed)
    print(f"{confirmed}/{checked} predicted improvements confirmed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gmsel",
                                     description="Instance selection for "
                                     "imbalanced data with 1-NN and G-mean")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark experiment")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="summarise a records CSV")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--alpha", type=float, default=0.05)
    p_rep.add_argument("--bonferroni-m", type=int, default=None)
    p_rep.set_defaults(func=_cmd_report)

    p_parse = sub.add_parser("parse", help="validate a KEEL .dat or CSV file")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=_cmd_parse)

    p_theory = sub.add_parser("theory", help="numerical verification lab")
    tsub = p_theory.add_subparsers(dest="theory_command", required=True)

    t1 = tsub.add_parser("boundary1d", help="exact 1D split-point analysis")
    t1.add_argument("--model", default=None, help="density model YAML")
    t1.add_argument("--lo", type=float, default=0.0)
    t1.add_argument("--hi", type=float, default=10.0)
    t1.add_argument("--steps", type=int, default=101)
    t1.add_argument("--out", default=None, help="CSV curve output")
    t1.set_defaults(func=_cmd_theory_boundary1d)

    t2 = tsub.add_parser("demo-gaussian",
                         help="classical vs balanced Bayes vs random editing")
    t2.add_argument("--seed", type=int, default=0)
    t2.add_argument("--re-trials", type=int, default=10_000)
    t2.add_argument("--no-re", action="store_true")
    t2.set_defaults(func=_cmd_theory_demo)

    t3 = tsub.add_parser("exhaustive", help="per-cardinality best-GM curve")
    t3.add_argument("--samples", type=int, default=2000)
    t3.add_argument("--seed", type=int, default=0)
    t3.add_argument("--out", default=None, help="CSV curve output")
    t3.set_defaults(func=_cmd_theory_exhaustive)

    t4 = tsub.add_parser("lemma-check", help="cell-inclusion verification")
    t4.add_argument("--configs", type=int, default=100)
    t4.add_argument("--probes", type=int, default=10_000)
    t4.add_argument("--seed", type=int, default=0)
    t4.set_defaults(func=_cmd_theory_lemma)

    t5 = tsub.add_parser("prop1", help="removal-improvement verification")
    t5.add_argument("--cases", type=int, default=200)
    t5.add_argument("--samples", type=int, default=10_000)
    t5.add_argument("--seed", type=int, default=0)
    t5.set_defaults(func=_cmd_theory_prop1)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
